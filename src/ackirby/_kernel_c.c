/* Compiled word kernel; mirrors _kernel_py exactly.
 *
 * Words are Python sequences of nonzero signed integers: +k is the k-th
 * generator, -k its inverse.  Each function loads its words into C long
 * buffers, runs on those, and boxes only its results into tuples.
 *
 * Loading rejects letters beyond MAX_GENERATOR (2**30, as in ackirby.words)
 * with OverflowError, so every key fits in a C long even where that is 32
 * bits, and nothing wraps.
 *
 * The canonicalizing functions work in key space, as _kernel_py does: the
 * key of a letter is its letter_key, so the canonical letter order is
 * integer order and the inverse of key k is k ^ 1.  sort_relators is the
 * one definition of the canonical relator order (length, then keys); it
 * compares key buffers and boxes nothing but its result tuple.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#define MAX_GENERATOR (1L << 30)

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

/* One letter as a C long; OverflowError beyond MAX_GENERATOR. */
static int
load_letter(PyObject *obj, long *out)
{
    long v = PyLong_AsLong(obj);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (v > MAX_GENERATOR || v < -MAX_GENERATOR) {
        PyErr_Format(PyExc_OverflowError,
                     "generator index of letter %ld exceeds %ld", v, MAX_GENERATOR);
        return -1;
    }
    *out = v;
    return 0;
}

/* Letters of a sequence, in a buffer of at least `extra` more longs than
 * letters (and at least one); the caller frees it with PyMem_Free.  With
 * `keys` set, the buffer holds letter keys instead.  NULL on error. */
static long *
load_word(PyObject *seq, Py_ssize_t *n, Py_ssize_t extra, int keys)
{
    PyObject *fast = PySequence_Fast(seq, "a word must be a sequence of letters");
    if (fast == NULL)
        return NULL;
    Py_ssize_t len = PySequence_Fast_GET_SIZE(fast);
    PyObject **items = PySequence_Fast_ITEMS(fast);
    long *buf = PyMem_New(long, len + extra + 1);
    if (buf == NULL) {
        Py_DECREF(fast);
        PyErr_NoMemory();
        return NULL;
    }
    for (Py_ssize_t i = 0; i < len; i++) {
        if (load_letter(items[i], &buf[i]) < 0) {
            Py_DECREF(fast);
            PyMem_Free(buf);
            return NULL;
        }
        if (keys)
            buf[i] = key_of(buf[i]);
    }
    Py_DECREF(fast);
    *n = len;
    return buf;
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

/* Start and length of the cyclically reduced core of the n letters at w. */
static Py_ssize_t
core_of(const long *w, Py_ssize_t n, Py_ssize_t *start)
{
    Py_ssize_t i = 0, j = n - 1;
    while (i < j && w[i] == -w[j]) {
        i++;
        j--;
    }
    *start = i;
    return j - i + 1;
}

/* Canonical relator of the core of n keys at c, as a letter tuple. */
static PyObject *
box_canonical(const long *c, Py_ssize_t n)
{
    if (n == 0)
        return PyTuple_New(0);
    long *buf = PyMem_New(long, 4 * n);
    if (buf == NULL)
        return PyErr_NoMemory();
    PyObject *out = box_word(least_rotation(c, n, buf), n, 1);
    PyMem_Free(buf);
    return out;
}

PyDoc_STRVAR(letter_key_doc,
"letter_key(v)\n--\n\n"
"Total order on letters: g1 < g1^-1 < g2 < g2^-1 < ...");

static PyObject *
letter_key(PyObject *self, PyObject *v)
{
    long letter;
    if (load_letter(v, &letter) < 0)
        return NULL;
    return PyLong_FromLong(key_of(letter));
}

PyDoc_STRVAR(reduce_word_doc,
"reduce_word(letters)\n--\n\n"
"Freely reduce a raw letter sequence by a single stack pass.");

static PyObject *
reduce_word(PyObject *self, PyObject *letters)
{
    Py_ssize_t n, top = 0;
    long *w = load_word(letters, &n, 0, 0);
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

PyDoc_STRVAR(reduce_concat_doc,
"reduce_concat(a, b)\n--\n\n"
"Concatenate two already-reduced words, cancelling at the seam.");

static PyObject *
reduce_concat(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError,
                     "reduce_concat() takes 2 arguments (%zd given)", nargs);
        return NULL;
    }
    Py_ssize_t la, lb, t = 0;
    long *a = load_word(args[0], &la, 0, 0);
    if (a == NULL)
        return NULL;
    long *b = load_word(args[1], &lb, la, 0);
    if (b == NULL) {
        PyMem_Free(a);
        return NULL;
    }
    Py_ssize_t m = la < lb ? la : lb;
    while (t < m && a[la - 1 - t] == -b[t])
        t++;
    /* b's buffer has room for a's letters in front of its tail */
    memmove(b + la - t, b + t, (lb - t) * sizeof(long));
    memcpy(b, a, (la - t) * sizeof(long));
    PyObject *out = box_word(b, la + lb - 2 * t, 0);
    PyMem_Free(a);
    PyMem_Free(b);
    return out;
}

PyDoc_STRVAR(invert_word_doc,
"invert_word(w)\n--\n\n"
"Inverse of a reduced word (reverse and negate).");

static PyObject *
invert_word(PyObject *self, PyObject *word)
{
    Py_ssize_t n;
    long *w = load_word(word, &n, 0, 0);
    if (w == NULL)
        return NULL;
    for (Py_ssize_t i = 0, j = n - 1; i <= j; i++, j--) {
        long v = w[i];
        w[i] = -w[j];
        w[j] = -v;
    }
    PyObject *out = box_word(w, n, 0);
    PyMem_Free(w);
    return out;
}

PyDoc_STRVAR(cyclic_split_doc,
"cyclic_split(w)\n--\n\n"
"Split a reduced word as conjugator * core * conjugator^-1.\n\n"
"Returns (conjugator, core) with the core cyclically reduced.");

static PyObject *
cyclic_split(PyObject *self, PyObject *word)
{
    Py_ssize_t n, start;
    long *w = load_word(word, &n, 0, 0);
    if (w == NULL)
        return NULL;
    Py_ssize_t len = core_of(w, n, &start);
    PyObject *conj = box_word(w, start, 0);
    PyObject *core = conj ? box_word(w + start, len, 0) : NULL;
    PyObject *out = core ? PyTuple_Pack(2, conj, core) : NULL;
    PyMem_Free(w);
    Py_XDECREF(conj);
    Py_XDECREF(core);
    return out;
}

PyDoc_STRVAR(canonical_rotation_doc,
"canonical_rotation(core)\n--\n\n"
"Lexicographically minimal rotation of a cyclically reduced word\n"
"or of its inverse, under the letter_key order.");

static PyObject *
canonical_rotation(PyObject *self, PyObject *core)
{
    Py_ssize_t n;
    long *c = load_word(core, &n, 0, 1);
    if (c == NULL)
        return NULL;
    PyObject *out = box_canonical(c, n);
    PyMem_Free(c);
    return out;
}

PyDoc_STRVAR(canonical_relator_doc,
"canonical_relator(w)\n--\n\n"
"Canonical form of a relator up to conjugation and inversion.");

static PyObject *
canonical_relator(PyObject *self, PyObject *word)
{
    Py_ssize_t n, start;
    long *w = load_word(word, &n, 0, 0);
    if (w == NULL)
        return NULL;
    Py_ssize_t len = core_of(w, n, &start);
    for (Py_ssize_t i = start; i < start + len; i++)
        w[i] = key_of(w[i]);
    PyObject *out = box_canonical(w + start, len);
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

PyDoc_STRVAR(sort_relators_doc,
"sort_relators(rels)\n--\n\n"
"The given relators as a tuple in canonical order: by length, then\n"
"letter by letter in letter_key order.  The sort is stable.");

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
        e[loaded].keys = load_word(items[loaded], &e[loaded].len, 0, 1);
        if (e[loaded].keys == NULL)
            goto done;
    }
    /* insertion sort: n is the rank, and moving only past strictly greater
     * entries keeps it stable */
    for (Py_ssize_t i = 1; i < n; i++) {
        relator_entry cur = e[i];
        Py_ssize_t j = i;
        for (; j > 0 && relator_less(&cur, &e[j - 1]); j--)
            e[j] = e[j - 1];
        e[j] = cur;
    }
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

/* Witness-ordered canonical products of rotations of the ni keys at a with
 * rotations of the nj keys at b or of their inverse, into the dict res.
 * Products whose core is longer than limit are skipped. */
static int
multiply_into(PyObject *res, const long *a, Py_ssize_t ni,
              const long *b, Py_ssize_t nj, Py_ssize_t limit)
{
    Py_ssize_t np = ni ? ni : 1, nq = nj ? nj : 1, m = ni < nj ? ni : nj;
    long *buf = PyMem_New(long, 2 * ni + 4 * nj + 5 * (ni + nj) + 1);
    if (buf == NULL) {
        PyErr_NoMemory();
        return -1;
    }
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
                Py_ssize_t t = 0, lw = 0, i = 0, j;
                while (t < m && u[ni - 1 - t] == (v[t] ^ 1))
                    t++;
                for (Py_ssize_t k = 0; k < ni - t; k++)
                    w[lw++] = u[k];
                for (Py_ssize_t k = t; k < nj; k++)
                    w[lw++] = v[k];
                j = lw - 1;
                while (i < j && w[i] == (w[j] ^ 1)) {
                    i++;
                    j--;
                }
                Py_ssize_t n = j - i + 1;
                if (n > limit)
                    continue;
                PyObject *child = n ? box_word(least_rotation(w + i, n, rot), n, 1)
                                    : PyTuple_New(0);
                if (child == NULL)
                    goto fail;
                int seen = PyDict_Contains(res, child);
                if (seen == 0) {
                    PyObject *witness = Py_BuildValue("(nin)", p, e ? -1 : 1, q);
                    seen = witness ? PyDict_SetItem(res, child, witness) : -1;
                    Py_XDECREF(witness);
                }
                Py_DECREF(child);
                if (seen < 0)
                    goto fail;
            }
        }
    }
    PyMem_Free(buf);
    return 0;
fail:
    PyMem_Free(buf);
    return -1;
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
    if (max_len != Py_None) {
        limit = PyLong_AsSsize_t(max_len);
        if (limit == -1 && PyErr_Occurred())
            return NULL;
    }
    Py_ssize_t ni, nj;
    long *a = load_word(ci, &ni, 0, 1);
    if (a == NULL)
        return NULL;
    long *b = load_word(cj, &nj, 0, 1);
    PyObject *res = b ? PyDict_New() : NULL;
    if (res != NULL && multiply_into(res, a, ni, b, nj, limit) < 0)
        Py_CLEAR(res);
    PyMem_Free(a);
    PyMem_Free(b);
    return res;
}

static PyMethodDef kernel_methods[] = {
    {"letter_key", letter_key, METH_O, letter_key_doc},
    {"reduce_word", reduce_word, METH_O, reduce_word_doc},
    {"reduce_concat", (PyCFunction)(void (*)(void))reduce_concat,
     METH_FASTCALL, reduce_concat_doc},
    {"invert_word", invert_word, METH_O, invert_word_doc},
    {"cyclic_split", cyclic_split, METH_O, cyclic_split_doc},
    {"canonical_rotation", canonical_rotation, METH_O, canonical_rotation_doc},
    {"canonical_relator", canonical_relator, METH_O, canonical_relator_doc},
    {"sort_relators", sort_relators, METH_O, sort_relators_doc},
    {"expand_multiply", (PyCFunction)(void (*)(void))expand_multiply,
     METH_VARARGS | METH_KEYWORDS, expand_multiply_doc},
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
    return PyModule_Create(&kernel_module);
}
