/* Compiled word kernel, the twin of _kernel_py.  Which functions it holds
 * is listed in _kernel.py alone; what they compute (key space, the packed
 * format, the length budget, the early skip, how bounds are read) is
 * stated in _kernel_py alone.  This comment says only how this file works.
 *
 * Each function loads its words into C long buffers, runs on those, and
 * boxes only its results into tuples.  One loader, load_word, reads every
 * letter; it rejects letters beyond MAX_GENERATOR (2**30, as in
 * ackirby.words) with OverflowError, so every key fits in a C long even
 * where that is 32 bits, and nothing wraps.  One boxer, box_word, builds
 * every word tuple, decoding keys where asked.  One splitter, cyclic_core,
 * finds every cyclically reduced core, and one comparison, keys_less,
 * orders every two key sequences.
 *
 * setup.py passes this file's CRC-32 (8 hex digits) as SOURCE_CRC32, which
 * the module exposes, so that ackirby._kernel can tell a stale build.
 *
 * One reader, state_rank, checks a packed state as _kernel_py._state_parts
 * does and counts its relators for expand_into, the one enumeration of a
 * class's children: it refuses a class before its first child, then packs
 * each child, in one scratch block, through the product loop that
 * expand_multiply uses and, in the extended regime, add_basis_child.
 * expand_level, its one entry point, runs it on each class of a level in
 * one class_ctx, whose one sink, add_child, puts each child straight into
 * the caller's visited dict.  One reader, load_bound, takes every length
 * bound and capacity through PyNumber_Index.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#define MAX_GENERATOR (1L << 30)
#define MAX_PACKED_GENERATOR 127

static long
key_of(long v)
{
    return v > 0 ? 2 * (v - 1) : 2 * (-v - 1) + 1;
}

static long
letter_of(long k)
{
    return (k & 1) ? -(k >> 1) - 1 : (k >> 1) + 1;
}

/* Letters of a sequence, in a buffer of at least one long; the caller
 * frees it with PyMem_Free.  With `keys` set, the buffer holds letter keys
 * instead.  OverflowError for a letter beyond MAX_GENERATOR; NULL on
 * error. */
static long *
load_word(PyObject *seq, Py_ssize_t *n, int keys)
{
    PyObject *fast = PySequence_Fast(seq, "a word must be a sequence of letters");
    if (fast == NULL)
        return NULL;
    Py_ssize_t len = PySequence_Fast_GET_SIZE(fast);
    PyObject **items = PySequence_Fast_ITEMS(fast);
    long *buf = PyMem_New(long, len + 1);
    if (buf == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    for (Py_ssize_t i = 0; i < len; i++) {
        long v = PyLong_AsLong(items[i]);
        if (v == -1 && PyErr_Occurred())
            goto fail;
        if (v > MAX_GENERATOR || v < -MAX_GENERATOR) {
            PyErr_Format(PyExc_OverflowError,
                         "generator index of letter %ld exceeds %ld", v, MAX_GENERATOR);
            goto fail;
        }
        buf[i] = keys ? key_of(v) : v;
    }
    Py_DECREF(fast);
    *n = len;
    return buf;
fail:
    Py_DECREF(fast);
    PyMem_Free(buf);
    return NULL;
}

/* Tuple of n values; `keys` decodes them from keys to letters first. */
static PyObject *
box_word(const long *buf, Py_ssize_t n, int keys)
{
    PyObject *out = PyTuple_New(n);
    if (out == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *v = PyLong_FromLong(keys ? letter_of(buf[i]) : buf[i]);
        if (v == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyTuple_SET_ITEM(out, i, v);
    }
    return out;
}

/* Whether the n keys at a sort before the n keys at b. */
static int
keys_less(const long *a, const long *b, Py_ssize_t n)
{
    for (Py_ssize_t i = 0; i < n; i++)
        if (a[i] != b[i])
            return a[i] < b[i];
    return 0;
}

/* Start of the cyclically reduced core of the n keys at w; its length
 * goes to *len (0 if the core is empty). */
static Py_ssize_t
cyclic_core(const long *w, Py_ssize_t n, Py_ssize_t *len)
{
    Py_ssize_t i = 0, j = n - 1;
    while (i < j && w[i] == (w[j] ^ 1)) {
        i++;
        j--;
    }
    *len = j - i + 1;
    return i;
}

/* Least rotation of the n > 0 keys at c or of their inverse.  buf holds
 * 4n longs: both words are written twice over, so rotation s starts at
 * offset s, and the result points into buf.  Only rotations that start at
 * the least key can win, so only those are compared. */
static const long *
least_rotation(const long *c, Py_ssize_t n, long *buf)
{
    long *fwd = buf, *inv = buf + 2 * n;
    long lo = c[0];
    for (Py_ssize_t k = 0; k < n; k++) {
        fwd[k] = fwd[k + n] = c[k];
        inv[k] = inv[k + n] = c[n - 1 - k] ^ 1;
        if (c[k] < lo)
            lo = c[k];
        if ((c[k] ^ 1) < lo)
            lo = c[k] ^ 1;
    }
    const long *best = NULL;
    for (int side = 0; side < 2; side++) {
        const long *cand = side ? inv : fwd;
        for (Py_ssize_t s = 0; s < n; s++)
            if (cand[s] == lo && (best == NULL || keys_less(cand + s, best, n)))
                best = cand + s;
    }
    return best;
}

PyDoc_STRVAR(reduce_word_doc,
"reduce_word(letters)\n--\n\n"
"Freely reduce a raw letter sequence by a single stack pass.");

static PyObject *
reduce_word(PyObject *self, PyObject *letters)
{
    Py_ssize_t n, top = 0;
    long *w = load_word(letters, &n, 0);
    if (w == NULL)
        return NULL;
    /* the stack grows in place: it never overtakes the read position */
    for (Py_ssize_t i = 0; i < n; i++) {
        if (top > 0 && w[top - 1] == -w[i])
            top--;
        else
            w[top++] = w[i];
    }
    PyObject *out = box_word(w, top, 0);
    PyMem_Free(w);
    return out;
}

PyDoc_STRVAR(canonical_relator_doc,
"canonical_relator(w)\n--\n\n"
"Canonical form of a relator up to conjugation and inversion.");

static PyObject *
canonical_relator(PyObject *self, PyObject *word)
{
    Py_ssize_t n;
    long *w = load_word(word, &n, 1);
    if (w == NULL)
        return NULL;
    Py_ssize_t i = cyclic_core(w, n, &n);
    long *rot = PyMem_New(long, 4 * n + 1);
    PyObject *out;
    if (rot == NULL)
        out = PyErr_NoMemory();
    else
        out = n ? box_word(least_rotation(w + i, n, rot), n, 1) : PyTuple_New(0);
    PyMem_Free(rot);
    PyMem_Free(w);
    return out;
}

/* A relator being sorted: the object itself and its letter keys. */
typedef struct {
    PyObject *obj;
    long *keys;
    Py_ssize_t len;
} relator_entry;

/* Whether relator a sorts before relator b: shorter first, then by keys. */
static int
relator_less(const relator_entry *a, const relator_entry *b)
{
    if (a->len != b->len)
        return a->len < b->len;
    return keys_less(a->keys, b->keys, a->len);
}

/* Sorts n entries into canonical relator order.  Insertion sort: n is a
 * rank, and moving only past strictly greater entries keeps it stable. */
static void
sort_entries(relator_entry *e, Py_ssize_t n)
{
    for (Py_ssize_t i = 1; i < n; i++) {
        relator_entry cur = e[i];
        Py_ssize_t j = i;
        for (; j > 0 && relator_less(&cur, &e[j - 1]); j--)
            e[j] = e[j - 1];
        e[j] = cur;
    }
}

PyDoc_STRVAR(sort_relators_doc,
"sort_relators(rels)\n--\n\n"
"The given relators as a tuple in canonical order: by length, then\n"
"letter by letter in key order (x < X < y < Y < ...).  The sort is stable.");

static PyObject *
sort_relators(PyObject *self, PyObject *rels)
{
    PyObject *fast = PySequence_Fast(rels, "relators must be a sequence of words");
    if (fast == NULL)
        return NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fast), loaded = 0;
    PyObject **items = PySequence_Fast_ITEMS(fast);
    PyObject *out = NULL;
    relator_entry *e = PyMem_New(relator_entry, n + 1);
    if (e == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (; loaded < n; loaded++) {
        e[loaded].obj = items[loaded];
        e[loaded].keys = load_word(items[loaded], &e[loaded].len, 1);
        if (e[loaded].keys == NULL)
            goto done;
    }
    sort_entries(e, n);
    out = PyTuple_New(n);
    if (out == NULL)
        goto done;
    for (Py_ssize_t i = 0; i < n; i++) {
        Py_INCREF(e[i].obj);
        PyTuple_SET_ITEM(out, i, e[i].obj);
    }
done:
    if (e != NULL) {
        for (Py_ssize_t i = 0; i < loaded; i++)
            PyMem_Free(e[i].keys);
        PyMem_Free(e);
    }
    Py_DECREF(fast);
    return out;
}

/* Receives each product's canonical core, the n keys at c (n may be 0),
 * with its witness (p, eps, q); 0 to go on, -1 with an exception set. */
typedef int (*product_sink)(void *ctx, const long *c, Py_ssize_t n,
                            Py_ssize_t p, int eps, Py_ssize_t q);

/* Longs for_each_product uses on words of ni and nj keys: a, b and b's
 * inverse twice each, a product, least_rotation's 4(ni + nj), and one. */
#define PRODUCT_SCRATCH(ni, nj) (7 * (ni) + 9 * (nj) + 1)

/* Every canonical product of a rotation of the ni keys at a with a
 * rotation of the nj keys at b or of their inverse, in witness order, into
 * sink.  Products whose core is longer than limit are skipped, most of
 * them before they are built, by the early skip of
 * _kernel_py.expand_multiply, which states why it changes nothing.  buf,
 * which the caller owns, holds PRODUCT_SCRATCH(ni, nj) longs; c lies in it. */
static int
for_each_product(const long *a, Py_ssize_t ni, const long *b, Py_ssize_t nj,
                 Py_ssize_t limit, product_sink sink, void *ctx, long *buf)
{
    Py_ssize_t np = ni ? ni : 1, nq = nj ? nj : 1, m = ni < nj ? ni : nj;
    /* rotation p of a starts at a2 + p, rotation q of b^eps at bs[eps] + q */
    long *a2 = buf, *bs[2] = {buf + 2 * ni, buf + 2 * ni + 2 * nj};
    long *w = buf + 2 * ni + 4 * nj, *rot = w + ni + nj;
    for (Py_ssize_t k = 0; k < ni; k++)
        a2[k] = a2[k + ni] = a[k];
    for (Py_ssize_t k = 0; k < nj; k++) {
        bs[0][k] = bs[0][k + nj] = b[k];
        bs[1][k] = bs[1][k + nj] = b[nj - 1 - k] ^ 1;
    }
    for (Py_ssize_t p = 0; p < np; p++) {
        const long *u = a2 + p;
        for (int e = 0; e < 2; e++) {
            for (Py_ssize_t q = 0; q < nq; q++) {
                const long *v = bs[e] + q;
                Py_ssize_t t = 0, lw = 0, n;
                while (t < m && u[ni - 1 - t] == (v[t] ^ 1))
                    t++;
                if (t < m && ni + nj - 2 * t > limit && u[0] != (v[nj - 1] ^ 1))
                    continue;
                for (Py_ssize_t k = 0; k < ni - t; k++)
                    w[lw++] = u[k];
                for (Py_ssize_t k = t; k < nj; k++)
                    w[lw++] = v[k];
                Py_ssize_t i = cyclic_core(w, lw, &n);
                if (n > limit)
                    continue;
                if (sink(ctx, n ? least_rotation(w + i, n, rot) : w, n,
                         p, e ? -1 : 1, q) < 0)
                    return -1;
            }
        }
    }
    return 0;
}

/* The length bound obj as a Py_ssize_t, clamped to its range, in *bound;
 * -1 with TypeError unless obj is an integer (PyNumber_Index). */
static int
load_bound(PyObject *obj, Py_ssize_t *bound)
{
    PyObject *index = PyNumber_Index(obj);
    if (index == NULL)
        return -1;
    *bound = PyNumber_AsSsize_t(index, NULL);
    Py_DECREF(index);
    return 0;
}

/* expand_multiply's sink: the boxed child with its first witness, into
 * the dict ctx. */
static int
witness_sink(void *ctx, const long *c, Py_ssize_t n, Py_ssize_t p, int eps, Py_ssize_t q)
{
    PyObject *child = box_word(c, n, 1);
    PyObject *witness = child ? Py_BuildValue("(nin)", p, eps, q) : NULL;
    int ok = witness != NULL && PyDict_SetDefault(ctx, child, witness) != NULL;
    Py_XDECREF(child);
    Py_XDECREF(witness);
    return ok ? 0 : -1;
}

PyDoc_STRVAR(expand_multiply_doc,
"expand_multiply(ci, cj, max_len=None)\n--\n\n"
"All canonical products of a rotation of ci with a rotation of\n"
"cj or of cj^-1, up to max_len letters; see _kernel_py.expand_multiply.");

static PyObject *
expand_multiply(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *names[] = {"ci", "cj", "max_len", NULL};
    PyObject *ci, *cj, *max_len = Py_None;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OO|O:expand_multiply", names,
                                     &ci, &cj, &max_len))
        return NULL;
    Py_ssize_t limit = PY_SSIZE_T_MAX;
    if (max_len != Py_None && load_bound(max_len, &limit) < 0)
        return NULL;
    Py_ssize_t ni, nj;
    long *a = load_word(ci, &ni, 1);
    if (a == NULL)
        return NULL;
    long *b = load_word(cj, &nj, 1);
    long *buf = b ? PyMem_New(long, PRODUCT_SCRATCH(ni, nj)) : NULL;
    PyObject *res = buf ? PyDict_New() : b ? PyErr_NoMemory() : NULL;
    if (res != NULL && for_each_product(a, ni, b, nj, limit, witness_sink, res, buf) < 0)
        Py_CLEAR(res);
    PyMem_Free(a);
    PyMem_Free(b);
    PyMem_Free(buf);
    return res;
}

/* Rank of a packed state: its number of 0 bytes.  -1 with TypeError
 * unless it is bytes, or with ValueError unless it is empty or ends with
 * a 0 byte, or if a byte names a generator above MAX_PACKED_GENERATOR,
 * whose keys plus one would not fit in a byte. */
static Py_ssize_t
state_rank(PyObject *state)
{
    if (!PyBytes_Check(state)) {
        PyErr_Format(PyExc_TypeError, "a packed state must be bytes, got %R", state);
        return -1;
    }
    const unsigned char *s = (const unsigned char *)PyBytes_AS_STRING(state);
    Py_ssize_t size = PyBytes_GET_SIZE(state), rank = 0;
    if (size && s[size - 1] != 0) {
        PyErr_SetString(PyExc_ValueError, "a packed state must end with a 0 byte");
        return -1;
    }
    for (Py_ssize_t t = 0; t < size; t++) {
        if (s[t] > 2 * MAX_PACKED_GENERATOR) {
            PyErr_Format(PyExc_ValueError, "packed state byte %d names a generator above %d",
                         s[t], MAX_PACKED_GENERATOR);
            return -1;
        }
        rank += s[t] == 0;
    }
    return rank;
}

/* A level being expanded, one class of it at a time.  A child that is not
 * yet a key of the dict `visited` is set there, with the class `parent` as
 * its value, and appended to the list `fresh`, unless the dict already
 * holds `capacity` keys; then `full` is set, and no child is added after
 * that.  The rest describes `parent` while expand_into runs on it: its
 * bytes, rank and total length, its relators' keys at the offsets of their
 * bytes, the start and length of each relator there, the relator a
 * product replaces (-1: none), and the buffer a child is packed into. */
typedef struct {
    PyObject *visited, *parent, *fresh;
    Py_ssize_t capacity;
    int full;
    const unsigned char *s;
    Py_ssize_t rank, total;
    long *keys;
    Py_ssize_t *start, *len, skip;
    unsigned char *out;
} class_ctx;

/* Adds the packed child in x->out[0..size) to the level's visited dict. */
static int
add_child(class_ctx *x, Py_ssize_t size)
{
    if (x->full)
        return 0;
    PyObject *child = PyBytes_FromStringAndSize((const char *)x->out, size);
    if (child == NULL)
        return -1;
    int seen = PyDict_Contains(x->visited, child);
    if (seen == 0 && PyDict_GET_SIZE(x->visited) >= x->capacity)
        x->full = 1;
    else if (seen == 0 && (PyDict_SetItem(x->visited, child, x->parent) < 0
                           || PyList_Append(x->fresh, child) < 0))
        seen = -1;
    Py_DECREF(child);
    return seen < 0 ? -1 : 0;
}

/* Whether relator r of the class sorts after the n keys at c. */
static int
relator_after(const class_ctx *x, Py_ssize_t r, const long *c, Py_ssize_t n)
{
    if (x->len[r] != n)
        return x->len[r] > n;
    return keys_less(c, x->keys + x->start[r], n);
}

/* Packs the class's relators but x->skip, with the n keys at c inserted
 * before the first of them that sorts after them (canonical order, as
 * _kernel_py._insert), and adds the child. */
static int
class_sink(void *ctx, const long *c, Py_ssize_t n, Py_ssize_t p, int eps, Py_ssize_t q)
{
    class_ctx *x = ctx;
    Py_ssize_t size = 0;
    int placed = 0;
    for (Py_ssize_t r = 0; r <= x->rank; r++) {
        if (!placed && (r == x->rank || (r != x->skip && relator_after(x, r, c, n)))) {
            for (Py_ssize_t k = 0; k < n; k++)
                x->out[size++] = (unsigned char)(c[k] + 1);
            x->out[size++] = 0;
            placed = 1;
        }
        if (r < x->rank && r != x->skip) {
            memcpy(x->out + size, x->s + x->start[r], x->len[r] + 1);
            size += x->len[r] + 1;
        }
    }
    return add_child(x, size);
}

/* Adds the destabilization that drops relator r, a single letter, if its
 * generator occurs in no other relator; the generators above move down. */
static int
add_destabilization(class_ctx *x, Py_ssize_t r, Py_ssize_t size)
{
    /* the generator's bytes are hi - 1 and hi */
    int hi = x->s[x->start[r]] + (x->s[x->start[r]] & 1);
    Py_ssize_t o = 0;
    for (Py_ssize_t t = 0; t < size; t++) {
        if (t == x->start[r] || t == x->start[r] + 1)
            continue;
        if (x->s[t] == hi || x->s[t] == hi - 1)
            return 0;
        x->out[o++] = x->s[t] > hi ? x->s[t] - 2 : x->s[t];
    }
    return add_child(x, o);
}

/* A generator basis change: generator g, counted from 0, becomes the
 * len[g] keys at img[g], and its inverse their inverse.  One entry per
 * generator a packed state holds. */
typedef struct {
    long img[MAX_PACKED_GENERATOR + 1][2];
    int len[MAX_PACKED_GENERATOR + 1];
} basis_change;

/* Adds the child of the basis change m if its total length is at most
 * max_len: every relator with each key replaced by its image, freely
 * reduced and canonicalized, then the relators in canonical order.  For a
 * class of total length n, work holds 12n + 1 longs (2n canonical keys,
 * 2n for one relator's image, 8n for its rotations) and e one entry per
 * relator. */
static int
add_basis_child(class_ctx *x, const basis_change *m, Py_ssize_t max_len,
                long *work, relator_entry *e)
{
    Py_ssize_t n = 0;    /* the child's total length so far */
    long *w = work + 2 * x->total, *rot = work + 4 * x->total;
    for (Py_ssize_t r = 0; r < x->rank; r++) {
        const long *b = x->keys + x->start[r];
        Py_ssize_t top = 0;
        /* the image, reduced by a stack pass */
        for (Py_ssize_t t = 0; t < x->len[r]; t++) {
            long k = b[t], g = k >> 1;
            for (int d = 0; d < m->len[g]; d++) {
                long y = k & 1 ? m->img[g][m->len[g] - 1 - d] ^ 1 : m->img[g][d];
                if (top > 0 && w[top - 1] == (y ^ 1))
                    top--;
                else
                    w[top++] = y;
            }
        }
        e[r].obj = NULL;
        e[r].keys = work + n;
        Py_ssize_t i = cyclic_core(w, top, &e[r].len);
        if (e[r].len)
            memcpy(e[r].keys, least_rotation(w + i, e[r].len, rot), e[r].len * sizeof(long));
        n += e[r].len;
    }
    if (n > max_len)
        return 0;
    sort_entries(e, x->rank);
    Py_ssize_t size = 0;
    for (Py_ssize_t r = 0; r < x->rank; r++) {
        for (Py_ssize_t k = 0; k < e[r].len; k++)
            x->out[size++] = (unsigned char)(e[r].keys[k] + 1);
        x->out[size++] = 0;
    }
    return add_child(x, size);
}

/* Adds the children of the packed class x->parent to the level's visited
 * dict one by one, in the order of _kernel_py._expand_class; as there, the
 * state and the generators its children would name are checked before the
 * first child. */
static int
expand_into(class_ctx *x, Py_ssize_t max_len, int extended)
{
    Py_ssize_t rank = state_rank(x->parent);
    if (rank < 0)
        return -1;
    Py_ssize_t size = PyBytes_GET_SIZE(x->parent);
    /* any negative bound admits the same children; -1 keeps budgets from wrapping */
    if (max_len < -1)
        max_len = -1;
    if (size - rank + 1 <= max_len && rank >= MAX_PACKED_GENERATOR) {
        PyErr_Format(PyExc_OverflowError, "stabilizing adds generator %zd, above %d",
                     rank + 1, MAX_PACKED_GENERATOR);
        return -1;
    }
    if (extended && rank > MAX_PACKED_GENERATOR) {
        PyErr_Format(PyExc_OverflowError, "basis changes at rank %zd name generators above %d",
                     rank, MAX_PACKED_GENERATOR);
        return -1;
    }
    x->s = (const unsigned char *)PyBytes_AS_STRING(x->parent);
    x->rank = rank;
    x->total = size - rank;
    /* one block, carved most-aligned first: add_basis_child's relator entries,
     * each relator's start and length, the keys, then scratch that the
     * products and add_basis_child use in turn (no relator holds more than
     * total keys, and 12 total + 1 fits), then the packed child */
    Py_ssize_t longs = size + PRODUCT_SCRATCH(x->total, x->total);
    relator_entry *e = PyMem_Malloc(rank * (sizeof(relator_entry) + 2 * sizeof(Py_ssize_t))
                                    + longs * sizeof(long) + 2 * size + 3);
    if (e == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    int ok = 0;
    x->start = (Py_ssize_t *)(e + rank);
    x->len = x->start + rank;
    x->keys = (long *)(x->len + rank);
    long *scratch = x->keys + size;
    x->out = (unsigned char *)(x->keys + longs);
    for (Py_ssize_t r = 0, i = 0; r < rank; r++) {
        for (x->start[r] = i; x->s[i]; i++)
            x->keys[i] = (long)x->s[i] - 1;
        x->len[r] = i++ - x->start[r];
    }

    for (x->skip = 0; x->skip < rank; x->skip++) {
        Py_ssize_t ni = x->len[x->skip], budget = max_len - (x->total - ni);
        for (Py_ssize_t j = 0; j < rank; j++)
            if (j != x->skip && x->len[j] > 0 &&
                for_each_product(x->keys + x->start[x->skip], ni, x->keys + x->start[j],
                                 x->len[j], budget, class_sink, x, scratch) < 0)
                goto done;
    }
    if (x->total + 1 <= max_len) {
        long key = 2 * (long)rank;
        x->skip = -1;
        if (class_sink(x, &key, 1, 0, 0, 0) < 0)
            goto done;
    }
    for (Py_ssize_t r = 0; rank > 1 && r < rank; r++)
        if (x->len[r] == 1 && add_destabilization(x, r, size) < 0)
            goto done;
    if (extended) {
        /* each change is set on the identity and undone after its child */
        basis_change m;
        for (long g = 0; g <= MAX_PACKED_GENERATOR; g++) {
            m.img[g][0] = 2 * g;
            m.len[g] = 1;
        }
        for (long i = 0; i < rank; i++) {
            m.len[i] = 2;    /* g_i -> g_i g_j, then g_i -> g_i g_j^-1, for each j */
            for (long c = 0; c < 2 * rank; c++) {
                m.img[i][1] = c;
                if (c >> 1 != i && add_basis_child(x, &m, max_len, scratch, e) < 0)
                    goto done;
            }
            m.len[i] = 1;
        }
        for (long i = 0; i < rank; i++) {
            m.img[i][0] = 2 * i + 1;    /* g_i -> g_i^-1 */
            if (add_basis_child(x, &m, max_len, scratch, e) < 0)
                goto done;
            m.img[i][0] = 2 * i;
        }
        for (long i = 0; i < rank; i++)
            for (long j = i + 1; j < rank; j++) {
                m.img[i][0] = 2 * j;    /* g_i <-> g_j */
                m.img[j][0] = 2 * i;
                if (add_basis_child(x, &m, max_len, scratch, e) < 0)
                    goto done;
                m.img[i][0] = 2 * i;
                m.img[j][0] = 2 * j;
            }
    }
    ok = 1;
done:
    PyMem_Free(e);
    return ok ? 0 : -1;
}

PyDoc_STRVAR(expand_level_doc,
"expand_level(frontier, visited, max_len, extended, capacity, /)\n--\n\n"
"The children of each packed class of the list frontier, in turn, that\n"
"the dict visited does not hold yet, set there with their parent as\n"
"value while it holds fewer than capacity keys, as (fresh, full); see\n"
"_kernel_py.expand_level.");

/* Positional arguments only (METH_FASTCALL), so that the search's call
 * per level builds no argument tuple. */
static PyObject *
expand_level(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    int extended;
    Py_ssize_t max_len;
    class_ctx x = {NULL};
    if (nargs != 5) {
        PyErr_Format(PyExc_TypeError,
                     "expand_level() takes 5 positional arguments but %zd were given", nargs);
        return NULL;
    }
    PyObject *frontier = args[0];
    x.visited = args[1];
    if ((extended = PyObject_IsTrue(args[3])) < 0 || load_bound(args[2], &max_len) < 0
        || load_bound(args[4], &x.capacity) < 0)
        return NULL;
    if (!PyList_CheckExact(frontier))
        return PyErr_Format(PyExc_TypeError, "a frontier must be a list, got %R", frontier);
    if (!PyDict_CheckExact(x.visited))
        return PyErr_Format(PyExc_TypeError, "a visited table must be a dict, got %R",
                            x.visited);
    x.fresh = PyList_New(0);
    if (x.fresh == NULL)
        return NULL;
    for (Py_ssize_t i = 0; !x.full && i < PyList_GET_SIZE(frontier); i++) {
        /* held: a key's __eq__ may change the list while the class is expanded */
        x.parent = PyList_GET_ITEM(frontier, i);
        Py_INCREF(x.parent);
        int rc = expand_into(&x, max_len, extended);
        Py_DECREF(x.parent);
        if (rc < 0) {
            Py_DECREF(x.fresh);
            return NULL;
        }
    }
    PyObject *out = PyTuple_Pack(2, x.fresh, x.full ? Py_True : Py_False);
    Py_DECREF(x.fresh);
    return out;
}

static PyMethodDef kernel_methods[] = {
    {"reduce_word", reduce_word, METH_O, reduce_word_doc},
    {"canonical_relator", canonical_relator, METH_O, canonical_relator_doc},
    {"sort_relators", sort_relators, METH_O, sort_relators_doc},
    {"expand_multiply", (PyCFunction)(void (*)(void))expand_multiply,
     METH_VARARGS | METH_KEYWORDS, expand_multiply_doc},
    {"expand_level", (PyCFunction)(void (*)(void))expand_level, METH_FASTCALL,
     expand_level_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "ackirby._kernel_c",
    .m_doc = "Compiled word kernel; mirrors _kernel_py exactly.",
    .m_size = 0,
    .m_methods = kernel_methods,
};

PyMODINIT_FUNC
PyInit__kernel_c(void)
{
    PyObject *m = PyModule_Create(&kernel_module);
    if (m != NULL && (PyModule_AddStringConstant(m, "SOURCE_CRC32", SOURCE_CRC32) < 0
                      || PyModule_AddIntMacro(m, MAX_PACKED_GENERATOR) < 0))
        Py_CLEAR(m);
    return m;
}
