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
 * The module holds the five functions the library calls on its hot paths:
 * reduce_word, invert_word, canonical_relator, sort_relators and
 * expand_multiply.  Cold word operations are written once, in Python, at
 * their callers.
 *
 * setup.py passes this file's CRC-32 (8 hex digits) as SOURCE_CRC32, which
 * the module exposes, so that ackirby._kernel can tell a stale build.
 *
 * The canonicalizing functions work in key space, as _kernel_py does: the
 * key of a letter orders g1 < g1^-1 < g2 < g2^-1 < ..., so the canonical
 * letter order is integer order and the inverse of key k is k ^ 1.
 * sort_relators is the one definition of the canonical relator order
 * (length, then keys); it compares key buffers and boxes nothing but its
 * result tuple.
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

/* Letters of a sequence, in a buffer of at least one long; the caller
 * frees it with PyMem_Free.  With `keys` set, the buffer holds letter keys
 * instead.  NULL on error. */
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

PyDoc_STRVAR(invert_word_doc,
"invert_word(w)\n--\n\n"
"Inverse of a reduced word (reverse and negate).");

static PyObject *
invert_word(PyObject *self, PyObject *word)
{
    Py_ssize_t n;
    long *w = load_word(word, &n, 0);
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

PyDoc_STRVAR(canonical_relator_doc,
"canonical_relator(w)\n--\n\n"
"Canonical form of a relator up to conjugation and inversion.");

static PyObject *
canonical_relator(PyObject *self, PyObject *word)
{
    Py_ssize_t n, i = 0;
    long *w = load_word(word, &n, 1);
    if (w == NULL)
        return NULL;
    /* the cyclically reduced core is w[i..j] */
    Py_ssize_t j = n - 1;
    while (i < j && w[i] == (w[j] ^ 1)) {
        i++;
        j--;
    }
    n = j - i + 1;
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
    long *a = load_word(ci, &ni, 1);
    if (a == NULL)
        return NULL;
    long *b = load_word(cj, &nj, 1);
    PyObject *res = b ? PyDict_New() : NULL;
    if (res != NULL && multiply_into(res, a, ni, b, nj, limit) < 0)
        Py_CLEAR(res);
    PyMem_Free(a);
    PyMem_Free(b);
    return res;
}

static PyMethodDef kernel_methods[] = {
    {"reduce_word", reduce_word, METH_O, reduce_word_doc},
    {"invert_word", invert_word, METH_O, invert_word_doc},
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
    PyObject *m = PyModule_Create(&kernel_module);
    if (m != NULL && PyModule_AddStringConstant(m, "SOURCE_CRC32", SOURCE_CRC32) < 0)
        Py_CLEAR(m);
    return m;
}
