/* Compiled insertion kernels in C99, with the entry points and results of
 * plactic._kernels._pure but not its algorithm: the scan here is an
 * odometer that inserts every word, where the pure scan tests membership
 * once per insertion tableau.  Each backend is an oracle for the other.
 *
 * Letters are C long long.  A letter outside that range raises
 * OverflowError, and plactic._kernels retries such a call in pure Python.
 *
 * A tableau of at most N cells has at most N rows, and no more rows than
 * distinct letters, since its columns strictly increase.  Row r (0-based)
 * holds at most N / (r + 1) cells, because the r + 1 rows down to it are
 * each at least as long.  With at most R rows, a tableau is one array of
 * off[R] long longs, at most about N ln N: t[0] is its number of rows,
 * t[1 + r] the length of row r, and row r starts at t + off[r].  The
 * tableaux of one call share off.
 *
 * Build in place with: python setup.py build_ext --inplace
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

/* The row offsets of tableaux of at most N cells in at most R <= N rows. */
static Py_ssize_t *row_offsets(Py_ssize_t N, Py_ssize_t R)
{
    Py_ssize_t *off = PyMem_Malloc((R + 1) * sizeof(Py_ssize_t));
    if (off == NULL)
        return (Py_ssize_t *)PyErr_NoMemory();
    off[0] = R + 1;
    for (Py_ssize_t r = 0; r < R; r++)
        off[r + 1] = off[r] + N / (r + 1);
    return off;
}

/* ntabs empty tableaux of at most R rows, one after another. */
static long long *new_tableaux(const Py_ssize_t *off, Py_ssize_t R, Py_ssize_t ntabs)
{
    long long *tabs = PyMem_Calloc(ntabs, off[R] * sizeof(long long));
    if (tabs == NULL)
        PyErr_NoMemory();
    return tabs;
}

/* Bump the leftmost entry strictly greater than a, row by row. */
static void tab_insert(long long *t, const Py_ssize_t *off, long long a)
{
    for (long long r = 0;; r++) {
        long long *row = t + off[r];
        if (r == t[0]) {
            row[0] = a;
            t[1 + r] = 1;
            t[0]++;
            return;
        }
        long long lo = 0;
        long long hi = t[1 + r];
        while (lo < hi) {
            long long mid = (lo + hi) / 2;
            if (row[mid] <= a)
                lo = mid + 1;
            else
                hi = mid;
        }
        if (lo == t[1 + r]) {
            row[lo] = a;
            t[1 + r]++;
            return;
        }
        long long bumped = row[lo];
        row[lo] = a;
        a = bumped;
    }
}

static void tab_copy(long long *dst, const long long *src, const Py_ssize_t *off)
{
    memcpy(dst, src, (1 + src[0]) * sizeof(long long));
    for (long long r = 0; r < src[0]; r++)
        memcpy(dst + off[r], src + off[r], src[1 + r] * sizeof(long long));
}

static int tab_equal(const long long *x, const long long *y, const Py_ssize_t *off)
{
    if (x[0] != y[0] || memcmp(x, y, (1 + x[0]) * sizeof(long long)) != 0)
        return 0;
    for (long long r = 0; r < x[0]; r++) {
        if (memcmp(x + off[r], y + off[r], x[1 + r] * sizeof(long long)) != 0)
            return 0;
    }
    return 1;
}

/* The tuple (xs[0] + add, ..., xs[n - 1] + add). */
static PyObject *int_tuple(const long long *xs, Py_ssize_t n, long long add)
{
    PyObject *out = PyTuple_New(n);
    for (Py_ssize_t i = 0; out != NULL && i < n; i++) {
        PyObject *x = PyLong_FromLongLong(xs[i] + add);
        if (x == NULL)
            Py_CLEAR(out);
        else
            PyTuple_SET_ITEM(out, i, x);
    }
    return out;
}

static PyObject *tab_rows(const long long *t, const Py_ssize_t *off)
{
    PyObject *rows = PyTuple_New(t[0]);
    for (long long r = 0; rows != NULL && r < t[0]; r++) {
        PyObject *row = int_tuple(t + off[r], t[1 + r], 0);
        if (row == NULL)
            Py_CLEAR(rows);
        else
            PyTuple_SET_ITEM(rows, r, row);
    }
    return rows;
}

/* The letters of an iterable as a new array of *len long longs. */
static long long *read_word(PyObject *obj, Py_ssize_t *len)
{
    PyObject *seq = PySequence_Fast(obj, "a word must be iterable");
    if (seq == NULL)
        return NULL;
    *len = PySequence_Fast_GET_SIZE(seq);
    long long *w = PyMem_Malloc(*len * sizeof(long long));
    if (w == NULL)
        PyErr_NoMemory();
    for (Py_ssize_t i = 0; w != NULL && i < *len; i++) {
        w[i] = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(seq, i));
        if (w[i] == -1 && PyErr_Occurred()) {
            PyMem_Free(w);
            w = NULL;
        }
    }
    Py_DECREF(seq);
    return w;
}

static PyObject *insertion_rows(PyObject *self, PyObject *word)
{
    Py_ssize_t n;
    long long *w = read_word(word, &n);
    if (w == NULL)
        return NULL;
    PyObject *rows = NULL;
    Py_ssize_t *off = row_offsets(n, n);
    long long *t = off == NULL ? NULL : new_tableaux(off, n, 1);
    if (t != NULL) {
        for (Py_ssize_t i = 0; i < n; i++)
            tab_insert(t, off, w[i]);
        rows = tab_rows(t, off);
    }
    PyMem_Free(t);
    PyMem_Free(off);
    PyMem_Free(w);
    return rows;
}

static PyObject *commutes(PyObject *self, PyObject *args)
{
    PyObject *uobj;
    PyObject *wobj;
    if (!PyArg_ParseTuple(args, "OO:commutes", &uobj, &wobj))
        return NULL;
    Py_ssize_t nu;
    Py_ssize_t nw;
    long long *u = read_word(uobj, &nu);
    long long *w = u == NULL ? NULL : read_word(wobj, &nw);
    Py_ssize_t *off = w == NULL ? NULL : row_offsets(nu + nw, nu + nw);
    long long *t = off == NULL ? NULL : new_tableaux(off, nu + nw, 2);
    PyObject *result = NULL;
    if (t != NULL) {
        long long *tw = t + off[nu + nw];
        for (Py_ssize_t i = 0; i < nu + nw; i++) {
            tab_insert(t, off, i < nu ? u[i] : w[i - nu]);
            tab_insert(tw, off, i < nw ? w[i] : u[i - nw]);
        }
        result = PyBool_FromLong(tab_equal(t, tw, off));
    }
    PyMem_Free(t);
    PyMem_Free(off);
    PyMem_Free(w);
    PyMem_Free(u);
    return result;
}

/* Count (or collect) the words w in [m]^n with P(uw) == P(wu), in
 * lexicographic order.  An odometer keeps the tableaux P(w[:i]) and
 * P(u . w[:i]) of every prefix, so each step re-inserts only the changed
 * suffix. */
static PyObject *scan(PyObject *args, PyObject *kwds, int collect)
{
    static char *kwlist[] = {"u", "n", "m", NULL};
    PyObject *uobj;
    Py_ssize_t n;
    Py_ssize_t m;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "Onn", kwlist, &uobj, &n, &m))
        return NULL;
    if (n < 0) {
        PyErr_SetString(PyExc_ValueError, "word length must be >= 0");
        return NULL;
    }
    if (n > 0 && m < 1)
        return collect ? PyList_New(0) : PyLong_FromLong(0);

    Py_ssize_t ulen = 0;
    long long *u = read_word(uobj, &ulen);
    Py_ssize_t N = n + ulen;
    /* The letters are [1, m] and those of u, so at most m + ulen rows. */
    Py_ssize_t R = m > 0 && m < n ? m + ulen : N;
    Py_ssize_t *off = u == NULL ? NULL : row_offsets(N, R);
    /* tabs[i] = P(w[:i]), tabs[n + 1 + i] = P(u . w[:i]), then the leaf
     * tableau, then the n odometer digits (off[R] > N slots). */
    long long *tabs = off == NULL ? NULL : new_tableaux(off, R, 2 * n + 4);
    PyObject *found = tabs != NULL && collect ? PyList_New(0) : NULL;
    PyObject *result = NULL;
    if (tabs == NULL || (collect && found == NULL))
        goto done;
    Py_ssize_t size = off[R];
    long long *pa = tabs;
    long long *pb = tabs + (n + 1) * size;
    long long *leaf = tabs + (2 * n + 2) * size;
    long long *digits = tabs + (2 * n + 3) * size;
    for (Py_ssize_t i = 0; i < ulen; i++)
        tab_insert(pb, off, u[i]);
    long long count = 0;
    /* The digits start at all 0s, the word at all 1s. */
    for (Py_ssize_t changed = 0; changed >= 0;) {
        for (Py_ssize_t i = changed; i < n; i++) {
            tab_copy(pa + (i + 1) * size, pa + i * size, off);
            tab_insert(pa + (i + 1) * size, off, digits[i] + 1);
            tab_copy(pb + (i + 1) * size, pb + i * size, off);
            tab_insert(pb + (i + 1) * size, off, digits[i] + 1);
        }
        tab_copy(leaf, pa + n * size, off);
        for (Py_ssize_t i = 0; i < ulen; i++)
            tab_insert(leaf, off, u[i]);
        if (tab_equal(leaf, pb + n * size, off)) {
            count++;
            PyObject *w = collect ? int_tuple(digits, n, 1) : NULL;
            if (collect && (w == NULL || PyList_Append(found, w) < 0)) {
                Py_XDECREF(w);
                goto done;
            }
            Py_XDECREF(w);
        }
        /* Advance the odometer; the carry past digit 0 ends the scan. */
        changed = n - 1;
        while (changed >= 0 && digits[changed] == m - 1)
            digits[changed--] = 0;
        if (changed >= 0)
            digits[changed]++;
    }
    result = collect ? Py_NewRef(found) : PyLong_FromLongLong(count);
done:
    Py_XDECREF(found);
    PyMem_Free(tabs);
    PyMem_Free(off);
    PyMem_Free(u);
    return result;
}

static PyObject *count_commuting(PyObject *self, PyObject *args, PyObject *kwds)
{
    return scan(args, kwds, 0);
}

static PyObject *commuting_words(PyObject *self, PyObject *args, PyObject *kwds)
{
    return scan(args, kwds, 1);
}

static PyMethodDef methods[] = {
    {"insertion_rows", insertion_rows, METH_O, "Insertion tableau of ``word`` as a tuple of row tuples."},
    {"commutes", commutes, METH_VARARGS, "True iff P(u.w) == P(w.u)."},
    {"count_commuting", (PyCFunction)(void (*)(void))count_commuting, METH_VARARGS | METH_KEYWORDS,
     "Number of words w in [m]^n with P(uw) == P(wu)."},
    {"commuting_words", (PyCFunction)(void (*)(void))commuting_words, METH_VARARGS | METH_KEYWORDS,
     "The words themselves, in lexicographic order."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_speedups", "Compiled insertion kernels; see plactic._kernels._pure.", -1, methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__speedups(void)
{
    PyObject *mod = PyModule_Create(&module);
    if (mod != NULL && PyModule_AddStringConstant(mod, "BACKEND", "c") < 0)
        Py_CLEAR(mod);
    return mod;
}
