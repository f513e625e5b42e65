/* Compiled insertion kernels in C99, with the two entry points and the
 * results of plactic._kernels._pure.  commuting_tableaux is the fill of
 * pure, with its bump rules and its row-1 test at the last cell, which
 * the docstring of _pure describes; the tests check it against the
 * unpruned fill and the brute-force definition.  Counting and listing the
 * words are done in plactic._kernels over commuting_tableaux.
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
#include <limits.h>
#include <stdlib.h>
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

/* The index of the leftmost of row[0..len) strictly greater than a, or
 * len. */
static long long row_bisect(const long long *row, long long len, long long a)
{
    long long lo = 0;
    while (lo < len) {
        long long mid = (lo + len) / 2;
        if (row[mid] <= a)
            lo = mid + 1;
        else
            len = mid;
    }
    return lo;
}

/* Bump the leftmost entry strictly greater than a, row by row; return the
 * row that grew. */
static long long tab_insert(long long *t, const Py_ssize_t *off, long long a)
{
    for (long long r = 0;; r++) {
        long long *row = t + off[r];
        if (r == t[0]) {
            row[0] = a;
            t[1 + r] = 1;
            t[0]++;
            return r;
        }
        long long pos = row_bisect(row, t[1 + r], a);
        if (pos == t[1 + r]) {
            row[pos] = a;
            t[1 + r]++;
            return r;
        }
        long long bumped = row[pos];
        row[pos] = a;
        a = bumped;
    }
}

/* Undo the tab_insert that grew row r: reverse-bump the last entry of row
 * r up through the rows above it, replacing the rightmost entry smaller
 * than the incoming one a in each, the one before the leftmost entry
 * greater than a - 1. */
static void tab_uninsert(long long *t, const Py_ssize_t *off, long long r)
{
    t[1 + r]--;
    long long a = t[off[r] + t[1 + r]];
    if (t[1 + r] == 0)
        t[0]--;
    while (r-- > 0) {
        long long *row = t + off[r];
        long long pos = row_bisect(row, t[1 + r], a - 1) - 1;
        long long bumped = row[pos];
        row[pos] = a;
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

/* The tuple (xs[0], ..., xs[n - 1]). */
static PyObject *int_tuple(const long long *xs, Py_ssize_t n)
{
    PyObject *out = PyTuple_New(n);
    for (Py_ssize_t i = 0; out != NULL && i < n; i++) {
        PyObject *x = PyLong_FromLongLong(xs[i]);
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
        PyObject *row = int_tuple(t + off[r], t[1 + r]);
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

/* The next partition after the shape of t in reverse lexicographic order
 * with at most R parts, written into t[0] (the rows) and t[1 + i] (the
 * row lengths); 0 when the shape was the last.  The rightmost part that
 * can drop by one while the parts after it, no larger, still hold the rest
 * drops, and the parts after it are filled greedily. */
static int next_shape(long long *t, long long R)
{
    long long rest = 0;
    for (long long i = t[0] - 1; i >= 0; i--) {
        rest += t[1 + i];
        long long part = t[1 + i] - 1;
        if (part > 0 && rest - part <= part * (R - i - 1)) {
            for (t[0] = i; rest > 0; t[0]++) {
                t[1 + t[0]] = part;
                rest -= part;
                part = rest < part ? rest : part;
            }
            return 1;
        }
    }
    return 0;
}

static int compare_letters(const void *x, const void *y)
{
    long long a = *(const long long *)x;
    long long b = *(const long long *)y;
    return (a > b) - (a < b);
}

/* The least of the sorted letters[0..len) that is >= v (v >= 1), or
 * LLONG_MAX when there is none. */
static long long letter_from(const long long *letters, long long len, long long v)
{
    long long pos = row_bisect(letters, len, v - 1);
    return pos < len ? letters[pos] : LLONG_MAX;
}

/* The bump rules at cell j of the top row, whose cells left of j hold
 * top[0..j): the least value >= v (v >= 1) that they allow there.  A
 * value above u[0] while every cell left of it is at most u[0] (the row
 * rule), or at least u[-1] in the first cell (the column rule), must be a
 * letter of u; LLONG_MAX when no letter is left. */
static long long top_value(long long v, long long j, const long long *top, const long long *letters,
                           Py_ssize_t ulen, long long u_first, long long u_last)
{
    if (ulen > 0 && ((v > u_first && (j == 0 || top[j - 1] <= u_first)) || (j == 0 && v >= u_last)))
        return letter_from(letters, ulen, v);
    return v;
}

/* Whether row 1 of t <- u equals row 1 of state <- v, with v the last
 * entry of the first row of t.  Row 1 of t <- u is the row pass of u over
 * that row, made in pass (room for t[1] + ulen letters): each letter
 * replaces the leftmost entry greater than it, or is appended, since
 * bumped letters never come back to row 1. */
static int first_rows_agree(const long long *t, const long long *state, const Py_ssize_t *off,
                            const long long *u, Py_ssize_t ulen, long long v, long long *pass)
{
    long long len = t[1];
    memcpy(pass, t + off[0], len * sizeof(long long));
    for (Py_ssize_t a = 0; a < ulen; a++) {
        long long pos = row_bisect(pass, len, u[a]);
        pass[pos] = u[a];
        if (pos == len)
            len++;
    }
    const long long *first = state + off[0];
    long long slen = state[1];
    long long pos = row_bisect(first, slen, v);
    return len == (pos == slen ? slen + 1 : slen) && pass[pos] == v &&
           memcmp(pass, first, pos * sizeof(long long)) == 0 &&
           memcmp(pass + pos + 1, first + pos + 1, (len - pos - 1) * sizeof(long long)) == 0;
}

/* The tableaux T with n cells and entries in [1, m] for which
 * T <- u == P(u) <- rowword(T), by the fill of plactic._kernels._pure and
 * in its order: shapes in reverse lexicographic order, then row words in
 * lexicographic order.  Each shape is filled by backtracking in row-word
 * order, bottom row first and left to right, while one tableau
 * P(u) <- (the row word so far) is kept: insert on the way down,
 * reverse-bump on the way back.  The bump rules skip values of column 1
 * and of the top row, and a value of the last cell is tested in full only
 * when the first rows of both sides agree. */
static PyObject *commuting_tableaux(PyObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"u", "n", "m", NULL};
    PyObject *uobj;
    Py_ssize_t n;
    Py_ssize_t m;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "Onn:commuting_tableaux", kwlist, &uobj, &n, &m))
        return NULL;
    if (n < 0) {
        PyErr_SetString(PyExc_ValueError, "word length must be >= 0");
        return NULL;
    }
    if (n == 0)
        return Py_BuildValue("[()]");
    if (m < 1)
        return PyList_New(0);

    Py_ssize_t ulen = 0;
    long long *u = read_word(uobj, &ulen);
    Py_ssize_t N = n + ulen;
    Py_ssize_t R = m < n ? m + ulen : N;
    Py_ssize_t *off = u == NULL ? NULL : row_offsets(N, R);
    /* state = P(u) <- the row word so far, t = the filling, tu = t <- u,
     * then, in blocks of off[R] >= N slots: per filled cell (a stack) the
     * row of state its insertion grew, the letters of u sorted, and the
     * row pass of the last cell. */
    long long *state = off == NULL ? NULL : new_tableaux(off, R, 6);
    PyObject *found = state == NULL ? NULL : PyList_New(0);
    PyObject *result = NULL;
    if (found == NULL)
        goto done;
    long long *t = state + off[R];
    long long *tu = state + 2 * off[R];
    long long *grew = state + 3 * off[R];
    long long *letters = state + 4 * off[R];
    long long *pass = state + 5 * off[R];
    for (Py_ssize_t i = 0; i < ulen; i++)
        tab_insert(state, off, u[i]);
    memcpy(letters, u, ulen * sizeof(long long));
    qsort(letters, ulen, sizeof(long long), compare_letters);
    long long u_first = ulen > 0 ? u[0] : 0;
    long long u_last = ulen > 0 ? u[ulen - 1] : 0;
    t[0] = 1;
    t[1] = n;
    do {
        long long bottom = t[0] - 1;
        long long i = bottom;
        long long j = 0;
        long long k = 0;
        long long v = bottom + 1;
        for (;;) {
            long long *row = t + off[i];
            long long hi = i < bottom && j < t[2 + i] ? t[off[i + 1] + j] - 1 : m;
            if (ulen > 0 && j == 0 && i < bottom && v < u_last) {
                /* Column rule: u[-1] would displace the first entry of
                 * the row below from column 1. */
                long long below = t[off[i + 1]];
                if (below >= u_last && letter_from(letters, ulen, below) != below)
                    v = u_last;
            }
            if (i == 0)
                v = top_value(v, j, row, letters, ulen, u_first, u_last);
            if (k == n - 1) {
                /* The top row's last cell: test every value it can take. */
                for (; v <= hi; v = top_value(v + 1, j, row, letters, ulen, u_first, u_last)) {
                    row[j] = v;
                    if (!first_rows_agree(t, state, off, u, ulen, v, pass))
                        continue;
                    long long end = tab_insert(state, off, v);
                    tab_copy(tu, t, off);
                    for (Py_ssize_t a = 0; a < ulen; a++)
                        tab_insert(tu, off, u[a]);
                    if (tab_equal(tu, state, off)) {
                        PyObject *rows = tab_rows(t, off);
                        if (rows == NULL || PyList_Append(found, rows) < 0) {
                            Py_XDECREF(rows);
                            goto done;
                        }
                        Py_DECREF(rows);
                    }
                    tab_uninsert(state, off, end);
                }
            }
            if (v <= hi) {
                row[j] = v;
                grew[k++] = tab_insert(state, off, v);
                /* Step to the next cell of the row word. */
                if (++j == t[1 + i]) {
                    i--;
                    j = 0;
                }
                v = j == 0 ? i + 1 : t[off[i] + j - 1];
                continue;
            }
            if (k == 0)
                break;
            /* Step back to the previous cell and its next value. */
            if (j-- == 0) {
                i++;
                j = t[1 + i] - 1;
            }
            tab_uninsert(state, off, grew[--k]);
            v = t[off[i] + j] + 1;
        }
    } while (next_shape(t, m < n ? m : n));
    result = Py_NewRef(found);
done:
    Py_XDECREF(found);
    PyMem_Free(state);
    PyMem_Free(off);
    PyMem_Free(u);
    return result;
}

static PyMethodDef methods[] = {
    {"insertion_rows", insertion_rows, METH_O, "Insertion tableau of ``word`` as a tuple of row tuples."},
    {"commuting_tableaux", (PyCFunction)(void (*)(void))commuting_tableaux, METH_VARARGS | METH_KEYWORDS,
     "The tableaux T with n cells and entries <= m with T <- u == P(u) <- rowword(T)."},
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
