/* Native batched core loop for compiled traces.
 *
 * A 1:1 translation of the event sequence of MCDCore's pure-Python
 * reference interpreter (MCDCore._run_generator), byte-identical to it:
 * same edge selection, same regulator calls, same jitter-stream
 * consumption, same floating-point accumulation order.  All arithmetic
 * is IEEE double precision; the build disables FP contraction
 * (-ffp-contract=off) so a*b+c rounds exactly as CPython rounds it.
 *
 * State crosses the boundary once per run: compiled-trace columns come
 * in as int64 buffers, cache/predictor/BTB state is unmarshalled from
 * the owning Python objects at entry and written back at exit.  A stock
 * Attack/Decay controller (paper Listing 1, plus the regulator's
 * request quantisation) is marshalled into flat registers and run
 * inline at each interval rollover — the closed-loop run then makes
 * zero per-interval Python crossings.  Custom controllers and interval
 * recording fall back to the per-interval `rollover` Python callback.
 * See repro/uarch/native.py for the build/load glue and controller
 * marshalling, and MCDCore.native_marshal for the marshal layer.
 *
 * Execution is staged around a per-run RunState struct so a whole
 * sweep can run on a thread pool inside one process:
 *
 *   1. marshal   — all PyObject access and buffer extraction (GIL held);
 *   2. compute   — the event loop, pure C over RunState-local data,
 *                  with the GIL RELEASED (PyEval_SaveThread).  Its only
 *                  Python crossings are the jitter `refill` and the
 *                  per-interval `rollover` callbacks, bridged through
 *                  shims that re-acquire the GIL for the call;
 *   3. writeback — fold results into the owning objects (GIL held).
 *
 * Three entry points share the stages.  run_compiled drives one RunState
 * through all three.  run_batch amortises the boundary across a sweep
 * cell: it marshals a *vector* of argument dicts up front, releases the
 * GIL once, computes every run back to back, and then writes each run
 * back into its own objects — exactly the per-run folding the single
 * entry performs, so batched results are byte-identical by
 * construction.  warm_up replays the head of a compiled trace through
 * the caches, the predictor tables and the BTB only (MCDCore.warm_up),
 * with the GIL released; it marshals and writes back that state with
 * the same helpers as the runs (marshal_uarch / writeback_uarch), and
 * the run loop touches it through the same access helpers, so the two
 * cannot drift apart.
 *
 * Reentrancy audit: this file holds NO mutable state with static
 * storage duration — every array, ring buffer and counter lives on the
 * compute stage's stack or in per-call PyMem allocations, and the
 * buffers handed in through the argument dict are created per call by
 * MCDCore (the trace columns it passes are read-only numpy arrays; a
 * run's newline is a per-run copy, and warm_up only reads newline).
 * Concurrent calls from different threads therefore never share
 * writable memory, which is what makes the thread-pool sweep backend
 * sound.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

#define RING 2048
#define RING_MASK (RING - 1)
#define EPS_NS 1e-6
#define MIN_STEP_NS 1e-6
#define QMAX 256 /* upper bound on issue-queue capacity */

/* ---------------------------------------------------------------- util */

static int
get_long(PyObject *dict, const char *key, long long *out)
{
    PyObject *v = PyDict_GetItemString(dict, key);
    if (v == NULL) {
        PyErr_Format(PyExc_KeyError, "hotpath: missing int arg %s", key);
        return -1;
    }
    *out = PyLong_AsLongLong(v);
    if (*out == -1 && PyErr_Occurred())
        return -1;
    return 0;
}

static int
get_double(PyObject *dict, const char *key, double *out)
{
    PyObject *v = PyDict_GetItemString(dict, key);
    if (v == NULL) {
        PyErr_Format(PyExc_KeyError, "hotpath: missing float arg %s", key);
        return -1;
    }
    *out = PyFloat_AsDouble(v);
    if (*out == -1.0 && PyErr_Occurred())
        return -1;
    return 0;
}

typedef struct {
    Py_buffer views[64];
    int count;
} ViewPool;

static void *
get_buffer(PyObject *dict, const char *key, ViewPool *pool, int writable,
           Py_ssize_t itemsize, Py_ssize_t *len_out)
{
    PyObject *v = PyDict_GetItemString(dict, key);
    if (v == NULL) {
        PyErr_Format(PyExc_KeyError, "hotpath: missing buffer arg %s", key);
        return NULL;
    }
    int flags = writable ? (PyBUF_C_CONTIGUOUS | PyBUF_WRITABLE)
                         : PyBUF_C_CONTIGUOUS;
    Py_buffer *view = &pool->views[pool->count];
    if (PyObject_GetBuffer(v, view, flags) < 0)
        return NULL;
    pool->count++;
    if (view->itemsize != itemsize) {
        PyErr_Format(PyExc_TypeError, "hotpath: %s has itemsize %zd, want %zd",
                     key, view->itemsize, itemsize);
        return NULL;
    }
    if (len_out != NULL)
        *len_out = view->len / itemsize;
    return view->buf;
}

static void
release_views(ViewPool *pool)
{
    for (int i = 0; i < pool->count; i++)
        PyBuffer_Release(&pool->views[i]);
    pool->count = 0;
}

/* A compiled-trace column: a C-contiguous int64 buffer of at least n
 * entries. */
static void *
get_column(PyObject *dict, const char *key, ViewPool *pool, int writable,
           int64_t n)
{
    Py_ssize_t len;
    void *buf = get_buffer(dict, key, pool, writable, 8, &len);
    if (buf != NULL && len < n) {
        PyErr_Format(PyExc_ValueError, "hotpath: column %s is shorter than n",
                     key);
        return NULL;
    }
    return buf;
}

/* ------------------------------------- caches, predictor and BTB state */

/* One set-associative array, most recently used way last in each set:
 * tags[set * ways + j] for j < cnt[set].  The BTB keeps each entry's
 * target beside its tag in tgts; caches leave tgts NULL. */
typedef struct {
    int64_t *tags, *tgts;
    int32_t *cnt;
    int64_t nsets;
    int ways;
} TagSets;

/* The combining predictor's tables (CombiningBranchPredictor) and its
 * BTB. */
typedef struct {
    int64_t *hist, *pl2, *bim, *meta;
    Py_ssize_t hist_len, pl2_len, bim_len, meta_len;
    int64_t hist_mask;
    TagSets btb;
} Predictor;

/* The Python-owned state every entry point unmarshals at entry and
 * writes back at exit, plus the lists that own it (borrowed from the
 * argument dict, which the caller keeps alive for the call). */
typedef struct {
    int shift; /* cache line shift */
    TagSets l1i, l1d, l2;
    Predictor bp;
    PyObject *l1i_o, *l1d_o, *l2_o, *hist_o, *pl2_o, *bim_o, *meta_o, *btb_o;
} Uarch;

/* The access helpers below sit in the run loop's innermost path; left
 * to its heuristics the compiler calls them out of line from a function
 * as large as compute_run. */
#define ALWAYS_INLINE inline __attribute__((always_inline))

/* Levels of the hierarchy, as repro.uarch.caches.MemoryLevel numbers
 * them. */
enum { LEVEL_L1 = 1, LEVEL_L2 = 2, LEVEL_MEMORY = 3 };

/* Branch outcomes; a mispredict's value is its bp_stats slot. */
enum { BRANCH_HIT = 0, BRANCH_DIRECTION = 1, BRANCH_TARGET = 2 };

/* SetAssociativeCache.access without its statistics: a hit moves the
 * line to the MRU way, a miss allocates it there (evicting the LRU way
 * of a full set).  Returns 1 on a hit. */
static ALWAYS_INLINE int
cache_access(const TagSets *c, int64_t line)
{
    const int64_t si = line % c->nsets;
    const int64_t tag = line / c->nsets;
    int64_t *set = &c->tags[si * c->ways];
    const int cnt = c->cnt[si];
    int j = 0;
    while (j < cnt && set[j] != tag)
        j++;
    const int hit = j < cnt;
    if (!hit) {
        if (cnt < c->ways) {
            set[cnt] = tag;
            c->cnt[si] = cnt + 1;
            return 0;
        }
        j = 0; /* evict the LRU way */
    }
    for (int k = j; k < cnt - 1; k++)
        set[k] = set[k + 1];
    set[cnt - 1] = tag;
    return hit;
}

/* CacheHierarchy.instruction_access / data_access without statistics:
 * an L1 miss goes to the unified L2.  Returns the servicing level. */
static ALWAYS_INLINE int
hierarchy_access(const TagSets *l1, const TagSets *l2, int64_t line)
{
    if (cache_access(l1, line))
        return LEVEL_L1;
    return cache_access(l2, line) ? LEVEL_L2 : LEVEL_MEMORY;
}

/* Count one access served at level into a cache_stats vector: l1 is
 * the L1's (accesses, misses) slot pair, slots 4 and 5 are the L2's. */
static ALWAYS_INLINE void
count_access(int64_t *stats, int l1, int level)
{
    stats[l1]++;
    if (level != LEVEL_L1) {
        stats[l1 + 1]++;
        stats[4]++;
        if (level == LEVEL_MEMORY)
            stats[5]++;
    }
}

/* BranchTargetBuffer.lookup: a hit moves the entry to the MRU way and
 * stores its target in *target.  Returns 1 on a hit. */
static ALWAYS_INLINE int
btb_lookup(const TagSets *b, int64_t word, int64_t *target)
{
    const int64_t si = word % b->nsets;
    const int64_t tag = word / b->nsets;
    int64_t *tags = &b->tags[si * b->ways], *tgts = &b->tgts[si * b->ways];
    const int cnt = b->cnt[si];
    for (int j = 0; j < cnt; j++) {
        if (tags[j] == tag) {
            *target = tgts[j];
            for (int k = j; k < cnt - 1; k++) {
                tags[k] = tags[k + 1];
                tgts[k] = tgts[k + 1];
            }
            tags[cnt - 1] = tag;
            tgts[cnt - 1] = *target;
            return 1;
        }
    }
    return 0;
}

/* BranchTargetBuffer.update: install (word, target) in the MRU way,
 * dropping the word's older entry, or else the LRU way of a full set. */
static ALWAYS_INLINE void
btb_update(const TagSets *b, int64_t word, int64_t target)
{
    const int64_t si = word % b->nsets;
    const int64_t tag = word / b->nsets;
    int64_t *tags = &b->tags[si * b->ways], *tgts = &b->tgts[si * b->ways];
    int cnt = b->cnt[si];
    int j = 0;
    while (j < cnt && tags[j] != tag)
        j++;
    if (j == cnt && cnt == b->ways)
        j = 0; /* evict the LRU way */
    if (j < cnt) {
        for (int k = j; k < cnt - 1; k++) {
            tags[k] = tags[k + 1];
            tgts[k] = tgts[k + 1];
        }
        cnt--;
    }
    tags[cnt] = tag;
    tgts[cnt] = target;
    b->cnt[si] = cnt + 1;
}

/* A 2-bit saturating counter step toward taken (1) or not taken (0). */
static ALWAYS_INLINE int64_t
counter_update(int64_t value, int taken)
{
    if (taken)
        return value < 3 ? value + 1 : 3;
    return value > 0 ? value - 1 : 0;
}

/* CombiningBranchPredictor.access without its statistics: predict the
 * branch at pc, check a correctly predicted taken branch's target in
 * the BTB, then train the tables and refresh the BTB.  Returns
 * BRANCH_HIT or the kind of mispredict. */
static ALWAYS_INLINE int
branch_access(const Predictor *p, int64_t pc, int64_t tk, int64_t target)
{
    const int64_t word = pc >> 2;
    const int64_t hist_i = word % p->hist_len;
    const int64_t history = p->hist[hist_i];
    const int64_t pl2_i = (history ^ word) % p->pl2_len;
    const int two_level = p->pl2[pl2_i] >= 2;
    const int64_t bim_i = word % p->bim_len;
    const int bimodal = p->bim[bim_i] >= 2;
    const int prediction = p->meta[word % p->meta_len] >= 2 ? two_level : bimodal;
    int outcome = BRANCH_HIT;
    if (prediction != (int)tk) {
        outcome = BRANCH_DIRECTION;
    } else if (tk) {
        int64_t stored;
        if (!btb_lookup(&p->btb, word, &stored) || stored != target)
            outcome = BRANCH_TARGET;
    }
    p->pl2[pl2_i] = counter_update(p->pl2[pl2_i], tk != 0);
    p->bim[bim_i] = counter_update(p->bim[bim_i], tk != 0);
    if (two_level != bimodal) {
        const int64_t meta_i = word % p->meta_len;
        p->meta[meta_i] = counter_update(p->meta[meta_i], two_level == (int)tk);
    }
    p->hist[hist_i] = ((history << 1) | (tk ? 1 : 0)) & p->hist_mask;
    if (tk)
        btb_update(&p->btb, word, target);
    return outcome;
}

/* Unmarshal a Python list (per set) of per-way entries, MRU last, into
 * *c: ints for a cache, (tag, target) tuples for the BTB (pairs = 1).
 * The arrays land in *c as soon as they are allocated, so free_uarch
 * releases them on failure too. */
static int
sets_from_list(PyObject *sets, long long nsets, long long ways, int pairs,
               TagSets *c)
{
    if (nsets < 1 || ways < 1 || !PyList_Check(sets)
        || PyList_GET_SIZE(sets) != nsets) {
        PyErr_SetString(PyExc_TypeError, "hotpath: bad set list");
        return -1;
    }
    c->nsets = nsets;
    c->ways = (int)ways;
    c->tags = PyMem_Malloc(nsets * ways * sizeof(int64_t));
    c->tgts = pairs ? PyMem_Malloc(nsets * ways * sizeof(int64_t)) : NULL;
    c->cnt = PyMem_Calloc(nsets, sizeof(int32_t));
    if (c->tags == NULL || (pairs && c->tgts == NULL) || c->cnt == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t i = 0; i < nsets; i++) {
        PyObject *s = PyList_GET_ITEM(sets, i);
        if (!PyList_Check(s)) {
            PyErr_SetString(PyExc_TypeError, "hotpath: bad set list");
            return -1;
        }
        Py_ssize_t k = PyList_GET_SIZE(s);
        if (k > ways)
            k = ways; /* transient overflow never persists */
        c->cnt[i] = (int32_t)k;
        for (Py_ssize_t j = 0; j < k; j++) {
            const Py_ssize_t at = i * ways + j;
            PyObject *entry = PyList_GET_ITEM(s, j);
            if (pairs) {
                if (!PyTuple_Check(entry) || PyTuple_GET_SIZE(entry) != 2) {
                    PyErr_SetString(PyExc_TypeError, "hotpath: bad BTB entry");
                    return -1;
                }
                c->tgts[at] = PyLong_AsLongLong(PyTuple_GET_ITEM(entry, 1));
                if (c->tgts[at] == -1 && PyErr_Occurred())
                    return -1;
                entry = PyTuple_GET_ITEM(entry, 0);
            }
            c->tags[at] = PyLong_AsLongLong(entry);
            if (c->tags[at] == -1 && PyErr_Occurred())
                return -1;
        }
    }
    return 0;
}

/* Rebuild each set's list in place of the old one; BTB ways become
 * (tag, target) tuples. */
static int
sets_to_list(PyObject *sets, const TagSets *c)
{
    for (Py_ssize_t i = 0; i < c->nsets; i++) {
        PyObject *s = PyList_New(c->cnt[i]);
        if (s == NULL)
            return -1;
        for (Py_ssize_t j = 0; j < c->cnt[i]; j++) {
            const int64_t at = i * c->ways + j;
            PyObject *entry =
                c->tgts != NULL
                    ? Py_BuildValue("(LL)", (long long)c->tags[at],
                                    (long long)c->tgts[at])
                    : PyLong_FromLongLong(c->tags[at]);
            if (entry == NULL) {
                Py_DECREF(s);
                return -1;
            }
            PyList_SET_ITEM(s, j, entry);
        }
        if (PyList_SetItem(sets, i, s) < 0)
            return -1;
    }
    return 0;
}

static int64_t *
ints_from_list(PyObject *list, Py_ssize_t *n_out)
{
    if (!PyList_Check(list) || PyList_GET_SIZE(list) < 1) {
        PyErr_SetString(PyExc_TypeError, "hotpath: expected a list of ints");
        return NULL;
    }
    Py_ssize_t n = PyList_GET_SIZE(list);
    int64_t *out = PyMem_Malloc(n * sizeof(int64_t));
    if (out == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        out[i] = PyLong_AsLongLong(PyList_GET_ITEM(list, i));
        if (out[i] == -1 && PyErr_Occurred()) {
            PyMem_Free(out);
            return NULL;
        }
    }
    *n_out = n;
    return out;
}

static int
ints_to_list(PyObject *list, const int64_t *vals, Py_ssize_t n)
{
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *v = PyLong_FromLongLong(vals[i]);
        if (v == NULL)
            return -1;
        if (PyList_SetItem(list, i, v) < 0)
            return -1;
    }
    return 0;
}

/* Unmarshal the cache, predictor and BTB state named in the argument
 * dict (GIL held).  On failure a Python exception is set and whatever
 * was already allocated stays in *u for free_uarch. */
static int
marshal_uarch(PyObject *a, Uarch *u)
{
    long long shift, l1i_nsets, l1i_ways, l1d_nsets, l1d_ways, l2_nsets;
    long long l2_ways, hist_mask, btb_nsets, btb_ways;
    if (get_long(a, "line_shift", &shift)
        || get_long(a, "l1i_nsets", &l1i_nsets)
        || get_long(a, "l1i_ways", &l1i_ways)
        || get_long(a, "l1d_nsets", &l1d_nsets)
        || get_long(a, "l1d_ways", &l1d_ways)
        || get_long(a, "l2_nsets", &l2_nsets) || get_long(a, "l2_ways", &l2_ways)
        || get_long(a, "hist_mask", &hist_mask)
        || get_long(a, "btb_nsets", &btb_nsets)
        || get_long(a, "btb_ways", &btb_ways))
        return -1;
    u->l1i_o = PyDict_GetItemString(a, "l1i_sets");
    u->l1d_o = PyDict_GetItemString(a, "l1d_sets");
    u->l2_o = PyDict_GetItemString(a, "l2_sets");
    u->hist_o = PyDict_GetItemString(a, "hist");
    u->pl2_o = PyDict_GetItemString(a, "pl2");
    u->bim_o = PyDict_GetItemString(a, "bim");
    u->meta_o = PyDict_GetItemString(a, "meta");
    u->btb_o = PyDict_GetItemString(a, "btb");
    if (!u->l1i_o || !u->l1d_o || !u->l2_o || !u->hist_o || !u->pl2_o
        || !u->bim_o || !u->meta_o || !u->btb_o) {
        PyErr_SetString(PyExc_KeyError, "hotpath: missing state arg");
        return -1;
    }
    u->shift = (int)shift;
    u->bp.hist_mask = hist_mask;
    if (sets_from_list(u->l1i_o, l1i_nsets, l1i_ways, 0, &u->l1i)
        || sets_from_list(u->l1d_o, l1d_nsets, l1d_ways, 0, &u->l1d)
        || sets_from_list(u->l2_o, l2_nsets, l2_ways, 0, &u->l2)
        || sets_from_list(u->btb_o, btb_nsets, btb_ways, 1, &u->bp.btb))
        return -1;
    u->bp.hist = ints_from_list(u->hist_o, &u->bp.hist_len);
    u->bp.pl2 = ints_from_list(u->pl2_o, &u->bp.pl2_len);
    u->bp.bim = ints_from_list(u->bim_o, &u->bp.bim_len);
    u->bp.meta = ints_from_list(u->meta_o, &u->bp.meta_len);
    if (!u->bp.hist || !u->bp.pl2 || !u->bp.bim || !u->bp.meta)
        return -1;
    return 0;
}

/* Fold the state back into its owning lists (GIL held). */
static int
writeback_uarch(const Uarch *u)
{
    const Predictor *bp = &u->bp;
    if (sets_to_list(u->l1i_o, &u->l1i) || sets_to_list(u->l1d_o, &u->l1d)
        || sets_to_list(u->l2_o, &u->l2) || sets_to_list(u->btb_o, &bp->btb)
        || ints_to_list(u->hist_o, bp->hist, bp->hist_len)
        || ints_to_list(u->pl2_o, bp->pl2, bp->pl2_len)
        || ints_to_list(u->bim_o, bp->bim, bp->bim_len)
        || ints_to_list(u->meta_o, bp->meta, bp->meta_len))
        return -1;
    return 0;
}

static void
free_tag_sets(TagSets *c)
{
    PyMem_Free(c->tags);
    PyMem_Free(c->tgts);
    PyMem_Free(c->cnt);
}

/* Release a (possibly partially) marshalled Uarch's allocations. */
static void
free_uarch(Uarch *u)
{
    free_tag_sets(&u->l1i);
    free_tag_sets(&u->l1d);
    free_tag_sets(&u->l2);
    free_tag_sets(&u->bp.btb);
    PyMem_Free(u->bp.hist);
    PyMem_Free(u->bp.pl2);
    PyMem_Free(u->bp.bim);
    PyMem_Free(u->bp.meta);
}

/* ---------------------------------------------------- GIL bridge shims */

/* The compute stage runs with the GIL released; these shims are its
 * only two Python crossings.  Each re-acquires the GIL just for the
 * callback and releases it again before returning, so other threads'
 * compute stages keep running while this one calls back.  On failure
 * the Python exception is left pending in this thread's state and -1
 * is returned; the caller must break out of the loop and touch no
 * Python API until the compute stage ends with the GIL re-acquired. */

static int
refill_jitter(PyObject *refill, int d, double **jbuf, Py_ssize_t *jlen,
              PyThreadState **tstate)
{
    int status = -1;
    PyEval_RestoreThread(*tstate);
    PyObject *arr = PyObject_CallFunction(refill, "i", d);
    if (arr != NULL) {
        Py_buffer jview;
        if (PyObject_GetBuffer(arr, &jview, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT)
            == 0) {
            Py_ssize_t k = jview.len / sizeof(double);
            double *fresh = NULL;
            if (jview.format == NULL || strcmp(jview.format, "d") != 0) {
                PyErr_SetString(PyExc_TypeError,
                                "hotpath: refill must return float64");
            } else if ((fresh = PyMem_Malloc((k ? k : 1) * sizeof(double)))
                       == NULL) {
                PyErr_NoMemory();
            } else {
                memcpy(fresh, jview.buf, k * sizeof(double));
                PyMem_Free(*jbuf);
                *jbuf = fresh;
                *jlen = k;
                status = 0;
            }
            PyBuffer_Release(&jview);
        }
        Py_DECREF(arr);
    }
    *tstate = PyEval_SaveThread();
    return status;
}

static int
rollover_callback(PyObject *rollover, long long index, long long retired,
                  double t, double duration, long long occ1, long long occ2,
                  long long occ3, const int64_t busy[4], long long mem,
                  PyThreadState **tstate)
{
    int status = -1;
    PyEval_RestoreThread(*tstate);
    PyObject *res = PyObject_CallFunction(
        rollover, "LLddLLLLLLLL", index, retired, t, duration, occ1, occ2,
        occ3, (long long)busy[0], (long long)busy[1], (long long)busy[2],
        (long long)busy[3], mem);
    if (res != NULL) {
        Py_DECREF(res);
        status = 0;
    }
    *tstate = PyEval_SaveThread();
    return status;
}

/* ------------------------------------------------------------ the loop */

/* All state one simulation needs across the three stages.  A RunState
 * is filled by marshal_run (GIL held), consumed by compute_run (GIL
 * released) and drained by writeback_run (GIL held); free_run drops
 * the buffer views and per-run allocations.  run_compiled wraps one
 * RunState; run_batch marshals a whole vector of them, releases the
 * GIL once, and computes the runs back to back. */
typedef struct {
    ViewPool pool;
    /* scalars */
    int64_t total;
    int decode_width, retire_width;
    int64_t rob_cap, l1_cycles, l2_cycles, mispredict_penalty, interval_len;
    int mcd_mode;
    int64_t kind_load, kind_store, kind_branch;
    int call_rollover;
    double mem_latency, window, vmin, fmin, vslope, vmax_sq_inv;
    double e_l1i, e_l2, e_bpred, e_retire, e_disp_fetch;
    /* native closed-loop controller */
    int native_ctrl;
    double ad_dev, ad_reaction, ad_decay, ad_perf_deg, ad_alpha;
    double cfg_min_mhz, cfg_max_mhz, freq_step;
    long long ad_endstop, ad_literal, freq_points;
    const int64_t *ad_ctrl;
    double *ad_freq, *ad_prev_util, *ad_ipc;
    int64_t *ad_upper, *ad_lower, *ad_attacks_up, *ad_attacks_down;
    int64_t *ad_decays, *ad_holds;
    const double *freq_table;
    int64_t *reg_requests, *reg_dirchg;
    /* column + state buffers (views owned by pool) */
    const int64_t *kinds, *pcs, *addrs, *taken_c, *targets_c;
    const int64_t *dest_c, *qd_c, *p1_c, *p2_c;
    int64_t *newline;
    const int64_t *lat_cycles, *complex_op, *simple_w, *complex_w, *q_cap;
    const double *clock_e, *idle_e, *e_issue_a, *e_simple_a, *e_complex_a;
    double *reg_cur, *reg_tgt, *reg_last;
    const double *reg_slew;
    double *reg_slew_acc;
    double *edge_ns;
    int64_t *cycle_idx;
    double *acc_clock, *acc_struct;
    int64_t *n_busy, *n_idle, *q_occ, *q_writes, *cache_stats, *bp_stats;
    double *cur_freq;
    /* unmarshalled python-object state (per-run PyMem allocations) */
    Uarch u;
    double *jbuf[4];
    Py_ssize_t jlen[4];
    int64_t *rob_seq;
    /* python callbacks (borrowed from the argument dict, which the
     * caller keeps alive for the duration of the call) */
    PyObject *refill, *rollover;
    /* compute outputs */
    int64_t int_free, fp_free;
    int64_t retired, memory_accesses, dispatch_stall_cycles;
    double wall;
    const char *error;
} RunState;

/* Release everything a RunState owns (GIL held).  Safe on a zeroed or
 * partially-marshalled state: every allocation lands in the struct the
 * moment it is made, and PyMem_Free/release_views tolerate NULL/empty. */
static void
free_run(RunState *rs)
{
    release_views(&rs->pool);
    free_uarch(&rs->u);
    PyMem_Free(rs->rob_seq);
    for (int d = 0; d < 4; d++)
        PyMem_Free(rs->jbuf[d]);
    memset(rs, 0, sizeof(*rs));
}

/* Stage 1: all PyObject access and buffer extraction (GIL held).
 * Fills *rs from the argument dict; on failure a Python exception is
 * set and whatever was already acquired stays in *rs for free_run. */
static int
marshal_run(PyObject *a, RunState *rs)
{
    ViewPool *pool = &rs->pool;
    /* --- scalars ------------------------------------------------------ */
    long long n_ll, decode_width_ll, retire_width_ll, rob_cap_ll;
    long long l1_cycles_ll, l2_cycles_ll, mispredict_penalty_ll;
    long long interval_len_ll, mcd_ll, int_free_ll, fp_free_ll;
    long long kind_load_ll, kind_store_ll, kind_branch_ll;
    long long call_rollover_ll;
    double mem_latency, window, vmin, fmin, vslope, vmax_sq_inv;
    double e_l1i, e_l2, e_bpred, e_retire, e_disp_fetch;
    if (get_long(a, "n", &n_ll) || get_long(a, "decode_width", &decode_width_ll)
        || get_long(a, "retire_width", &retire_width_ll)
        || get_long(a, "rob_cap", &rob_cap_ll)
        || get_long(a, "l1_cycles", &l1_cycles_ll)
        || get_long(a, "l2_cycles", &l2_cycles_ll)
        || get_long(a, "mispredict_penalty", &mispredict_penalty_ll)
        || get_long(a, "interval_len", &interval_len_ll)
        || get_long(a, "mcd", &mcd_ll)
        || get_long(a, "int_free", &int_free_ll)
        || get_long(a, "fp_free", &fp_free_ll)
        || get_long(a, "kind_load", &kind_load_ll)
        || get_long(a, "kind_store", &kind_store_ll)
        || get_long(a, "kind_branch", &kind_branch_ll)
        || get_long(a, "call_rollover", &call_rollover_ll)
        || get_double(a, "mem_latency", &mem_latency)
        || get_double(a, "window", &window)
        || get_double(a, "vmin", &vmin) || get_double(a, "fmin", &fmin)
        || get_double(a, "vslope", &vslope)
        || get_double(a, "vmax_sq_inv", &vmax_sq_inv)
        || get_double(a, "e_l1i", &e_l1i) || get_double(a, "e_l2", &e_l2)
        || get_double(a, "e_bpred", &e_bpred)
        || get_double(a, "e_retire", &e_retire)
        || get_double(a, "e_disp_fetch", &e_disp_fetch))
        goto fail;

    const int64_t total = n_ll;
    const int decode_width = (int)decode_width_ll;
    const int retire_width = (int)retire_width_ll;
    const int64_t rob_cap = rob_cap_ll;
    const int64_t l1_cycles = l1_cycles_ll, l2_cycles = l2_cycles_ll;
    const int64_t mispredict_penalty = mispredict_penalty_ll;
    const int64_t interval_len = interval_len_ll;
    const int mcd_mode = (int)mcd_ll;
    const int64_t kind_load = kind_load_ll, kind_store = kind_store_ll,
                  kind_branch = kind_branch_ll;
    const int call_rollover = (int)call_rollover_ll;
    int64_t int_free = int_free_ll, fp_free = fp_free_ll;

    /* --- native closed-loop controller (attack/decay, Listing 1) ------ */
    long long native_ctrl_ll = 0;
    if (get_long(a, "native_ctrl", &native_ctrl_ll))
        goto fail;
    const int native_ctrl = (int)native_ctrl_ll;
    double ad_dev = 0.0, ad_reaction = 0.0, ad_decay = 0.0, ad_perf_deg = 0.0;
    double ad_alpha = 1.0, cfg_min_mhz = 0.0, cfg_max_mhz = 0.0, freq_step = 1.0;
    long long ad_endstop = 0, ad_literal = 0, freq_points = 0;
    const int64_t *ad_ctrl = NULL;
    double *ad_freq = NULL, *ad_prev_util = NULL, *ad_ipc = NULL;
    int64_t *ad_upper = NULL, *ad_lower = NULL;
    int64_t *ad_attacks_up = NULL, *ad_attacks_down = NULL;
    int64_t *ad_decays = NULL, *ad_holds = NULL;
    const double *freq_table = NULL;
    int64_t *reg_requests = NULL, *reg_dirchg = NULL;

    /* --- column buffers ----------------------------------------------- */
    const int64_t *kinds = get_column(a, "kinds", pool, 0, total);
    const int64_t *pcs = get_column(a, "pcs", pool, 0, total);
    const int64_t *addrs = get_column(a, "addrs", pool, 0, total);
    const int64_t *taken_c = get_column(a, "taken", pool, 0, total);
    const int64_t *targets_c = get_column(a, "targets", pool, 0, total);
    const int64_t *dest_c = get_column(a, "dest", pool, 0, total);
    const int64_t *qd_c = get_column(a, "domain", pool, 0, total);
    const int64_t *p1_c = get_column(a, "p1", pool, 0, total);
    const int64_t *p2_c = get_column(a, "p2", pool, 0, total);
    int64_t *newline = get_column(a, "newline", pool, 1, total);
    if (!kinds || !pcs || !addrs || !taken_c || !targets_c || !dest_c || !qd_c
        || !p1_c || !p2_c || !newline)
        goto fail;

    const int64_t *lat_cycles = get_buffer(a, "lat_cycles", pool, 0, 8, NULL);
    const int64_t *complex_op = get_buffer(a, "complex_op", pool, 0, 8, NULL);
    const int64_t *simple_w = get_buffer(a, "simple_w", pool, 0, 8, NULL);
    const int64_t *complex_w = get_buffer(a, "complex_w", pool, 0, 8, NULL);
    const int64_t *q_cap = get_buffer(a, "q_cap", pool, 0, 8, NULL);
    const double *clock_e = get_buffer(a, "clock_e", pool, 0, 8, NULL);
    const double *idle_e = get_buffer(a, "idle_e", pool, 0, 8, NULL);
    const double *e_issue_a = get_buffer(a, "e_issue", pool, 0, 8, NULL);
    const double *e_simple_a = get_buffer(a, "e_simple", pool, 0, 8, NULL);
    const double *e_complex_a = get_buffer(a, "e_complex", pool, 0, 8, NULL);
    double *reg_cur = get_buffer(a, "reg_cur", pool, 1, 8, NULL);
    double *reg_tgt = get_buffer(a, "reg_tgt", pool, 1, 8, NULL);
    double *reg_last = get_buffer(a, "reg_last", pool, 1, 8, NULL);
    const double *reg_slew = get_buffer(a, "reg_slew", pool, 0, 8, NULL);
    double *reg_slew_acc = get_buffer(a, "reg_slew_acc", pool, 1, 8, NULL);
    double *edge_ns = get_buffer(a, "edge", pool, 1, 8, NULL);
    int64_t *cycle_idx = get_buffer(a, "cyc", pool, 1, 8, NULL);
    double *acc_clock = get_buffer(a, "acc_clock", pool, 1, 8, NULL);
    double *acc_struct = get_buffer(a, "acc_struct", pool, 1, 8, NULL);
    int64_t *n_busy = get_buffer(a, "n_busy", pool, 1, 8, NULL);
    int64_t *n_idle = get_buffer(a, "n_idle", pool, 1, 8, NULL);
    int64_t *q_occ = get_buffer(a, "q_occ", pool, 1, 8, NULL);
    int64_t *q_writes = get_buffer(a, "q_writes", pool, 1, 8, NULL);
    int64_t *cache_stats = get_buffer(a, "cache_stats", pool, 1, 8, NULL);
    int64_t *bp_stats = get_buffer(a, "bp_stats", pool, 1, 8, NULL);
    double *cur_freq = get_buffer(a, "cur_freq", pool, 1, 8, NULL);
    if (!lat_cycles || !complex_op || !simple_w || !complex_w || !q_cap
        || !clock_e || !idle_e || !e_issue_a || !e_simple_a || !e_complex_a
        || !reg_cur || !reg_tgt || !reg_last || !reg_slew || !reg_slew_acc
        || !edge_ns || !cycle_idx || !acc_clock || !acc_struct || !n_busy
        || !n_idle || !q_occ || !q_writes || !cache_stats || !bp_stats
        || !cur_freq)
        goto fail;

    if (native_ctrl) {
        if (get_double(a, "ad_dev", &ad_dev)
            || get_double(a, "ad_reaction", &ad_reaction)
            || get_double(a, "ad_decay", &ad_decay)
            || get_double(a, "ad_perf_deg", &ad_perf_deg)
            || get_double(a, "ad_alpha", &ad_alpha)
            || get_long(a, "ad_endstop", &ad_endstop)
            || get_long(a, "ad_literal", &ad_literal)
            || get_long(a, "freq_points", &freq_points)
            || get_double(a, "freq_step", &freq_step)
            || get_double(a, "cfg_min_mhz", &cfg_min_mhz)
            || get_double(a, "cfg_max_mhz", &cfg_max_mhz))
            goto fail;
        ad_ctrl = get_buffer(a, "ad_ctrl", pool, 0, 8, NULL);
        ad_freq = get_buffer(a, "ad_freq", pool, 1, 8, NULL);
        ad_prev_util = get_buffer(a, "ad_prev_util", pool, 1, 8, NULL);
        ad_upper = get_buffer(a, "ad_upper", pool, 1, 8, NULL);
        ad_lower = get_buffer(a, "ad_lower", pool, 1, 8, NULL);
        ad_attacks_up = get_buffer(a, "ad_attacks_up", pool, 1, 8, NULL);
        ad_attacks_down = get_buffer(a, "ad_attacks_down", pool, 1, 8, NULL);
        ad_decays = get_buffer(a, "ad_decays", pool, 1, 8, NULL);
        ad_holds = get_buffer(a, "ad_holds", pool, 1, 8, NULL);
        ad_ipc = get_buffer(a, "ad_ipc", pool, 1, 8, NULL);
        Py_ssize_t table_n = 0;
        freq_table = get_buffer(a, "freq_table", pool, 0, 8, &table_n);
        reg_requests = get_buffer(a, "reg_requests", pool, 1, 8, NULL);
        reg_dirchg = get_buffer(a, "reg_dirchg", pool, 1, 8, NULL);
        if (!ad_ctrl || !ad_freq || !ad_prev_util || !ad_upper || !ad_lower
            || !ad_attacks_up || !ad_attacks_down || !ad_decays || !ad_holds
            || !ad_ipc || !freq_table || !reg_requests || !reg_dirchg)
            goto fail;
        if (freq_points < 1 || table_n < freq_points) {
            PyErr_SetString(PyExc_ValueError, "hotpath: bad frequency table");
            goto fail;
        }
    }

    /* --- python-object state, unmarshalled ----------------------------- */
    PyObject *jlists = PyDict_GetItemString(a, "jbufs");
    PyObject *refill = PyDict_GetItemString(a, "refill");
    PyObject *rollover = PyDict_GetItemString(a, "rollover");
    if (!jlists || !refill || !rollover) {
        PyErr_SetString(PyExc_KeyError, "hotpath: missing object arg");
        goto fail;
    }
    if (marshal_uarch(a, &rs->u) < 0)
        goto fail;

    /* Jitter buffers (consumed from the tail, exactly like list.pop). */
    for (int d = 0; d < 4; d++) {
        PyObject *lst = PyList_GET_ITEM(jlists, d);
        Py_ssize_t k = PyList_GET_SIZE(lst);
        rs->jbuf[d] = PyMem_Malloc((k ? k : 1) * sizeof(double));
        if (rs->jbuf[d] == NULL) {
            PyErr_NoMemory();
            goto fail;
        }
        for (Py_ssize_t j = 0; j < k; j++) {
            rs->jbuf[d][j] = PyFloat_AsDouble(PyList_GET_ITEM(lst, j));
            if (PyErr_Occurred())
                goto fail;
        }
        rs->jlen[d] = k;
    }

    /* Validation that used to sit in the run-local setup: raise while
     * errors still can be raised cheaply, before any compute starts. */
    rs->rob_seq = PyMem_Malloc(rob_cap * sizeof(int64_t));
    if (rs->rob_seq == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    for (int d = 1; d < 4; d++) {
        if (q_cap[d] > QMAX) {
            PyErr_SetString(PyExc_ValueError, "hotpath: issue queue too large");
            goto fail;
        }
    }

    rs->total = total;
    rs->decode_width = decode_width;
    rs->retire_width = retire_width;
    rs->rob_cap = rob_cap;
    rs->l1_cycles = l1_cycles;
    rs->l2_cycles = l2_cycles;
    rs->mispredict_penalty = mispredict_penalty;
    rs->interval_len = interval_len;
    rs->mcd_mode = mcd_mode;
    rs->kind_load = kind_load;
    rs->kind_store = kind_store;
    rs->kind_branch = kind_branch;
    rs->call_rollover = call_rollover;
    rs->int_free = int_free;
    rs->fp_free = fp_free;
    rs->mem_latency = mem_latency;
    rs->window = window;
    rs->vmin = vmin;
    rs->fmin = fmin;
    rs->vslope = vslope;
    rs->vmax_sq_inv = vmax_sq_inv;
    rs->e_l1i = e_l1i;
    rs->e_l2 = e_l2;
    rs->e_bpred = e_bpred;
    rs->e_retire = e_retire;
    rs->e_disp_fetch = e_disp_fetch;
    rs->native_ctrl = native_ctrl;
    rs->ad_dev = ad_dev;
    rs->ad_reaction = ad_reaction;
    rs->ad_decay = ad_decay;
    rs->ad_perf_deg = ad_perf_deg;
    rs->ad_alpha = ad_alpha;
    rs->cfg_min_mhz = cfg_min_mhz;
    rs->cfg_max_mhz = cfg_max_mhz;
    rs->freq_step = freq_step;
    rs->ad_endstop = ad_endstop;
    rs->ad_literal = ad_literal;
    rs->freq_points = freq_points;
    rs->ad_ctrl = ad_ctrl;
    rs->ad_freq = ad_freq;
    rs->ad_prev_util = ad_prev_util;
    rs->ad_ipc = ad_ipc;
    rs->ad_upper = ad_upper;
    rs->ad_lower = ad_lower;
    rs->ad_attacks_up = ad_attacks_up;
    rs->ad_attacks_down = ad_attacks_down;
    rs->ad_decays = ad_decays;
    rs->ad_holds = ad_holds;
    rs->freq_table = freq_table;
    rs->reg_requests = reg_requests;
    rs->reg_dirchg = reg_dirchg;
    rs->kinds = kinds;
    rs->pcs = pcs;
    rs->addrs = addrs;
    rs->taken_c = taken_c;
    rs->targets_c = targets_c;
    rs->dest_c = dest_c;
    rs->qd_c = qd_c;
    rs->p1_c = p1_c;
    rs->p2_c = p2_c;
    rs->newline = newline;
    rs->lat_cycles = lat_cycles;
    rs->complex_op = complex_op;
    rs->simple_w = simple_w;
    rs->complex_w = complex_w;
    rs->q_cap = q_cap;
    rs->clock_e = clock_e;
    rs->idle_e = idle_e;
    rs->e_issue_a = e_issue_a;
    rs->e_simple_a = e_simple_a;
    rs->e_complex_a = e_complex_a;
    rs->reg_cur = reg_cur;
    rs->reg_tgt = reg_tgt;
    rs->reg_last = reg_last;
    rs->reg_slew = reg_slew;
    rs->reg_slew_acc = reg_slew_acc;
    rs->edge_ns = edge_ns;
    rs->cycle_idx = cycle_idx;
    rs->acc_clock = acc_clock;
    rs->acc_struct = acc_struct;
    rs->n_busy = n_busy;
    rs->n_idle = n_idle;
    rs->q_occ = q_occ;
    rs->q_writes = q_writes;
    rs->cache_stats = cache_stats;
    rs->bp_stats = bp_stats;
    rs->cur_freq = cur_freq;
    rs->refill = refill;
    rs->rollover = rollover;
    return 0;

fail:
    return -1;
}

/* Stage 2: the event loop.  Called with the GIL RELEASED (*tstate_p
 * holds the saved thread state); the refill/rollover shims re-acquire
 * it per crossing and the updated state flows back through tstate_p.
 * Returns 0 on success — including simulator-level "trace exhausted",
 * which reports through rs->error — and -1 when a Python callback
 * raised; the caller must PyEval_RestoreThread before touching the
 * pending exception. */
static int
compute_run(RunState *rs, PyThreadState **tstate_p)
{
    const int64_t total = rs->total;
    const int decode_width = rs->decode_width;
    const int retire_width = rs->retire_width;
    const int64_t rob_cap = rs->rob_cap;
    const int64_t l1_cycles = rs->l1_cycles, l2_cycles = rs->l2_cycles;
    const int64_t mispredict_penalty = rs->mispredict_penalty;
    const int64_t interval_len = rs->interval_len;
    const int mcd_mode = rs->mcd_mode;
    const int64_t kind_load = rs->kind_load, kind_store = rs->kind_store,
                  kind_branch = rs->kind_branch;
    const int call_rollover = rs->call_rollover;
    int64_t int_free = rs->int_free, fp_free = rs->fp_free;
    const double mem_latency = rs->mem_latency, window = rs->window;
    const double vmin = rs->vmin, fmin = rs->fmin, vslope = rs->vslope,
                 vmax_sq_inv = rs->vmax_sq_inv;
    const double e_l1i = rs->e_l1i, e_l2 = rs->e_l2, e_bpred = rs->e_bpred,
                 e_retire = rs->e_retire, e_disp_fetch = rs->e_disp_fetch;
    const int native_ctrl = rs->native_ctrl;
    const double ad_dev = rs->ad_dev, ad_reaction = rs->ad_reaction,
                 ad_decay = rs->ad_decay, ad_perf_deg = rs->ad_perf_deg,
                 ad_alpha = rs->ad_alpha;
    const double cfg_min_mhz = rs->cfg_min_mhz, cfg_max_mhz = rs->cfg_max_mhz,
                 freq_step = rs->freq_step;
    const long long ad_endstop = rs->ad_endstop, ad_literal = rs->ad_literal,
                    freq_points = rs->freq_points;
    const int64_t *ad_ctrl = rs->ad_ctrl;
    double *ad_freq = rs->ad_freq, *ad_prev_util = rs->ad_prev_util,
           *ad_ipc = rs->ad_ipc;
    int64_t *ad_upper = rs->ad_upper, *ad_lower = rs->ad_lower;
    int64_t *ad_attacks_up = rs->ad_attacks_up,
            *ad_attacks_down = rs->ad_attacks_down;
    int64_t *ad_decays = rs->ad_decays, *ad_holds = rs->ad_holds;
    const double *freq_table = rs->freq_table;
    int64_t *reg_requests = rs->reg_requests, *reg_dirchg = rs->reg_dirchg;
    const int64_t *kinds = rs->kinds, *pcs = rs->pcs, *addrs = rs->addrs;
    const int64_t *taken_c = rs->taken_c, *targets_c = rs->targets_c;
    const int64_t *dest_c = rs->dest_c, *qd_c = rs->qd_c;
    const int64_t *p1_c = rs->p1_c, *p2_c = rs->p2_c;
    int64_t *newline = rs->newline;
    const int64_t *lat_cycles = rs->lat_cycles, *complex_op = rs->complex_op;
    const int64_t *simple_w = rs->simple_w, *complex_w = rs->complex_w;
    const int64_t *q_cap = rs->q_cap;
    const double *clock_e = rs->clock_e, *idle_e = rs->idle_e;
    const double *e_issue_a = rs->e_issue_a, *e_simple_a = rs->e_simple_a,
                 *e_complex_a = rs->e_complex_a;
    double *reg_cur = rs->reg_cur, *reg_tgt = rs->reg_tgt,
           *reg_last = rs->reg_last;
    const double *reg_slew = rs->reg_slew;
    double *reg_slew_acc = rs->reg_slew_acc;
    double *edge_ns = rs->edge_ns;
    int64_t *cycle_idx = rs->cycle_idx;
    double *acc_clock = rs->acc_clock, *acc_struct = rs->acc_struct;
    int64_t *n_busy = rs->n_busy, *n_idle = rs->n_idle;
    int64_t *q_occ = rs->q_occ, *q_writes = rs->q_writes;
    int64_t *cache_stats = rs->cache_stats, *bp_stats = rs->bp_stats;
    double *cur_freq = rs->cur_freq;
    /* Local copies, so the access helpers' geometry stays in registers. */
    const int shift = rs->u.shift;
    const TagSets l1i = rs->u.l1i, l1d = rs->u.l1d, l2 = rs->u.l2;
    const Predictor bp = rs->u.bp;
    double **jbuf = rs->jbuf;
    Py_ssize_t *jlen = rs->jlen;
    int64_t *rob_seq = rs->rob_seq;
    PyObject *refill = rs->refill, *rollover = rs->rollover;
    PyThreadState *tstate = *tstate_p;
    /* --- local run state ---------------------------------------------- */
    double fin_ns[RING];
    int64_t fin_cycle[RING];
    int32_t fin_domain[RING];
    for (int i = 0; i < RING; i++) {
        fin_ns[i] = -INFINITY;
        fin_cycle[i] = 0;
        fin_domain[i] = -1;
    }

    int64_t rob_head = 0, rob_n = 0; /* ring buffer over rob_cap slots */

    int64_t q_seq[4][QMAX];
    double q_t[4][QMAX];
    double q_retry[4][QMAX];
    int q_len[4] = {0, 0, 0, 0};

    double cur_period[4], cur_vscale[4];
    int slewing[4];
    for (int d = 0; d < 4; d++) {
        cur_period[d] = 1e3 / cur_freq[d];
        double v = vmin + (cur_freq[d] - fmin) * vslope;
        cur_vscale[d] = v * v * vmax_sq_inv;
        slewing[d] = reg_cur[d] != reg_tgt[d];
    }

    int active[4] = {1, 0, 0, 0};
    int64_t retired = 0, fetch_i = 0;
    double fetch_resume_ns = 0.0;
    int64_t branch_stall_seq = -1;
    int64_t dispatch_stall_cycles = 0, memory_accesses = 0;
    double interval_start_ns = 0.0;
    int64_t next_interval = interval_len, interval_index = 0;
    int64_t busy_in_interval[4] = {0, 0, 0, 0};
    const char *error = NULL;

    /* ---- compute stage: pure C, GIL released ------------------------- */
    int py_error = 0;

    while (retired < total) {
        int d = 0;
        double t = edge_ns[0];
        if (active[1] && edge_ns[1] < t) { d = 1; t = edge_ns[1]; }
        if (active[2] && edge_ns[2] < t) { d = 2; t = edge_ns[2]; }
        if (active[3] && edge_ns[3] < t) { d = 3; t = edge_ns[3]; }

        if (slewing[d]) {
            /* regulator advance_to(t) */
            double dt = t - reg_last[d];
            reg_last[d] = t;
            double freq = reg_cur[d];
            if (dt > 0.0 && reg_cur[d] != reg_tgt[d]) {
                double max_delta = dt * reg_slew[d];
                double gap = reg_tgt[d] - reg_cur[d];
                if (fabs(gap) <= max_delta) {
                    reg_cur[d] = reg_tgt[d];
                    reg_slew_acc[d] += fabs(gap) / reg_slew[d];
                } else {
                    reg_cur[d] += gap > 0 ? max_delta : -max_delta;
                    reg_slew_acc[d] += dt;
                }
                freq = reg_cur[d];
            }
            if (freq == reg_tgt[d])
                slewing[d] = 0;
            if (freq != cur_freq[d]) {
                cur_freq[d] = freq;
                cur_period[d] = 1e3 / freq;
                double v = vmin + (freq - fmin) * vslope;
                cur_vscale[d] = v * v * vmax_sq_inv;
            }
        }
        double vscale = cur_vscale[d];

        if (d == 0) {
            double access_energy = 0.0;
            int worked = 0;

            /* ---- retire ---- */
            double cross_thresh = mcd_mode ? window : 0.5 * cur_period[0];
            int n_retire = 0;
            while (rob_n > 0 && n_retire < retire_width) {
                int64_t seq = rob_seq[rob_head];
                int64_t slot = seq & RING_MASK;
                if (fin_ns[slot] + cross_thresh > t + EPS_NS)
                    break;
                rob_head = (rob_head + 1) % rob_cap;
                rob_n--;
                int64_t dst = dest_c[seq - 1];
                if (dst == 0)
                    int_free++;
                else if (dst == 1)
                    fp_free++;
                n_retire++;
            }
            retired += n_retire;
            if (n_retire) {
                worked = 1;
                access_energy += (double)n_retire * e_retire;
            }

            /* ---- interval rollover ---- */
            if (retired >= next_interval) {
                interval_index++;
                next_interval += interval_len;
                double duration = t - interval_start_ns;
                if (duration <= 0)
                    duration = cur_period[0];
                for (int i = 1; i < 4; i++) {
                    /* regulator advance_to(t) */
                    double dt = t - reg_last[i];
                    reg_last[i] = t;
                    double ifreq = reg_cur[i];
                    if (dt > 0.0 && reg_cur[i] != reg_tgt[i]) {
                        double max_delta = dt * reg_slew[i];
                        double gap = reg_tgt[i] - reg_cur[i];
                        if (fabs(gap) <= max_delta) {
                            reg_cur[i] = reg_tgt[i];
                            reg_slew_acc[i] += fabs(gap) / reg_slew[i];
                        } else {
                            reg_cur[i] += gap > 0 ? max_delta : -max_delta;
                            reg_slew_acc[i] += dt;
                        }
                        ifreq = reg_cur[i];
                    }
                    slewing[i] = ifreq != reg_tgt[i];
                    if (ifreq != cur_freq[i]) {
                        cur_freq[i] = ifreq;
                        cur_period[i] = 1e3 / ifreq;
                        double v = vmin + (ifreq - fmin) * vslope;
                        cur_vscale[i] = v * v * vmax_sq_inv;
                    }
                    if (!active[i]) {
                        double edge = edge_ns[i];
                        if (t > edge) {
                            double period = cur_period[i];
                            double skipped = ceil((t - edge) / period);
                            edge_ns[i] = edge + skipped * period;
                            cycle_idx[i] += (int64_t)skipped;
                            acc_clock[i] += idle_e[i] * cur_vscale[i] * skipped;
                            n_idle[i] += (int64_t)skipped;
                        }
                    }
                }
                int64_t occ1 = q_occ[1], occ2 = q_occ[2], occ3 = q_occ[3];
                q_occ[1] = q_occ[2] = q_occ[3] = 0;
                if (call_rollover) {
                    if (rollover_callback(
                            rollover, (long long)(interval_index - 1),
                            (long long)retired, t, duration, (long long)occ1,
                            (long long)occ2, (long long)occ3,
                            busy_in_interval, (long long)memory_accesses,
                            &tstate) < 0) {
                        py_error = 1;
                        break;
                    }
                    /* Pick up controller-applied regulator changes.
                     * NOTE: vscale deliberately stays the value bound
                     * at the top of this cycle, like the reference
                     * interpreter. */
                    for (int i = 0; i < 4; i++) {
                        slewing[i] = reg_cur[i] != reg_tgt[i];
                        if (reg_cur[i] != cur_freq[i]) {
                            cur_freq[i] = reg_cur[i];
                            cur_period[i] = 1e3 / reg_cur[i];
                            double v = vmin + (reg_cur[i] - fmin) * vslope;
                            cur_vscale[i] = v * v * vmax_sq_inv;
                        }
                    }
                } else if (native_ctrl) {
                    /* Attack/Decay (paper Listing 1) run inline: the
                     * same arithmetic, in the same order, as
                     * AttackDecayController.on_interval feeding
                     * VoltageFrequencyRegulator.request — with zero
                     * Python crossings. */
                    double raw_ipc = (double)interval_len
                                     / (duration * cur_freq[0] * 1e-3);
                    double ipc;
                    if (interval_index - 1 == 0 || ad_alpha >= 1.0)
                        ipc = raw_ipc;
                    else
                        ipc = ad_alpha * raw_ipc + (1.0 - ad_alpha) * ad_ipc[1];
                    ad_ipc[1] = ipc;
                    /* The PerfDegThreshold guard (Listing 1 l.19 & 25). */
                    int decrease_allowed = 0;
                    if (ipc > 0.0) {
                        if (ad_ipc[0] <= 0.0) {
                            decrease_allowed = 1;
                        } else {
                            double ratio = ad_ipc[0] / ipc;
                            decrease_allowed =
                                ad_literal ? (ratio >= ad_perf_deg)
                                           : (ratio - 1.0 <= ad_perf_deg);
                        }
                    }
                    int64_t occs[4] = {0, occ1, occ2, occ3};
                    for (int i = 0; i < 4; i++) {
                        if (!ad_ctrl[i])
                            continue;
                        double utilization =
                            (double)occs[i] / (double)interval_len;
                        double scale = 1.0; /* >1 slows the domain down */
                        if (ad_upper[i] >= ad_endstop) {
                            scale = 1.0 + ad_reaction; /* force decrease */
                            ad_attacks_down[i]++;
                        } else if (ad_lower[i] >= ad_endstop) {
                            scale = 1.0 - ad_reaction; /* force increase */
                            ad_attacks_up[i]++;
                        } else {
                            double prev = ad_prev_util[i];
                            double deviation = prev * ad_dev;
                            if (utilization - prev > deviation) {
                                scale = 1.0 - ad_reaction;
                                ad_attacks_up[i]++;
                            } else if (prev - utilization > deviation
                                       && decrease_allowed) {
                                scale = 1.0 + ad_reaction;
                                ad_attacks_down[i]++;
                            } else if (decrease_allowed && ad_decay > 0.0) {
                                scale = 1.0 + ad_decay;
                                ad_decays[i]++;
                            } else {
                                ad_holds[i]++;
                            }
                        }
                        double new_mhz = ad_freq[i] / scale;
                        /* min(max_f, max(min_f, new_mhz)) */
                        if (new_mhz < cfg_min_mhz)
                            new_mhz = cfg_min_mhz;
                        if (new_mhz > cfg_max_mhz)
                            new_mhz = cfg_max_mhz;
                        if (new_mhz != ad_freq[i]) {
                            ad_freq[i] = new_mhz;
                            /* regulator.request: quantize to the scale
                             * (nearbyint = round-half-even, matching
                             * Python's round()). */
                            double clamped = new_mhz < cfg_min_mhz
                                                 ? cfg_min_mhz
                                                 : new_mhz;
                            if (clamped > cfg_max_mhz)
                                clamped = cfg_max_mhz;
                            int64_t idx = (int64_t)nearbyint(
                                (clamped - cfg_min_mhz) / freq_step);
                            if (idx < 0)
                                idx = 0;
                            if (idx >= freq_points)
                                idx = freq_points - 1;
                            double snapped = freq_table[idx];
                            if (snapped != reg_tgt[i]) {
                                reg_requests[i]++;
                                double old_dir = reg_tgt[i] - reg_cur[i];
                                double new_dir = snapped - reg_cur[i];
                                if (old_dir * new_dir < 0.0)
                                    reg_dirchg[i]++;
                                reg_tgt[i] = snapped;
                            }
                        }
                        /* Endstop counters (Listing 1 l.38-47). */
                        int at_min = ad_freq[i] <= cfg_min_mhz + 1e-9;
                        int at_max = ad_freq[i] >= cfg_max_mhz - 1e-9;
                        if (at_min && ad_lower[i] != ad_endstop)
                            ad_lower[i]++;
                        else
                            ad_lower[i] = 0;
                        if (at_max && ad_upper[i] != ad_endstop)
                            ad_upper[i]++;
                        else
                            ad_upper[i] = 0;
                        ad_prev_util[i] = utilization;
                    }
                    ad_ipc[0] = ipc;
                    /* Pick up the new regulator targets, exactly as
                     * after the callback above (request never moves
                     * reg_cur, so the cur_freq refresh is a no-op kept
                     * for strict symmetry). */
                    for (int i = 0; i < 4; i++) {
                        slewing[i] = reg_cur[i] != reg_tgt[i];
                        if (reg_cur[i] != cur_freq[i]) {
                            cur_freq[i] = reg_cur[i];
                            cur_period[i] = 1e3 / reg_cur[i];
                            double v = vmin + (reg_cur[i] - fmin) * vslope;
                            cur_vscale[i] = v * v * vmax_sq_inv;
                        }
                    }
                }
                busy_in_interval[0] = busy_in_interval[1] = 0;
                busy_in_interval[2] = busy_in_interval[3] = 0;
                interval_start_ns = t;
            }

            /* ---- fetch / dispatch ---- */
            if (branch_stall_seq < 0 && t + EPS_NS >= fetch_resume_ns
                && fetch_i < total) {
                int fetched = 0, stalled = 0;
                int64_t fi = fetch_i;
                while (fetched < decode_width) {
                    if (fi >= total)
                        break;
                    if (newline[fi]) {
                        newline[fi] = 0;
                        access_energy += e_l1i;
                        int level = hierarchy_access(&l1i, &l2, pcs[fi] >> shift);
                        count_access(cache_stats, 0, level);
                        if (level != LEVEL_L1) {
                            double delay =
                                (double)l2_cycles * cur_period[3] + 2.0 * window;
                            access_energy += e_l2;
                            if (level == LEVEL_MEMORY) {
                                delay += mem_latency;
                                memory_accesses++;
                            }
                            fetch_resume_ns = t + delay;
                            break;
                        }
                    }
                    if (rob_n >= rob_cap) {
                        stalled = 1;
                        break;
                    }
                    int64_t qd = qd_c[fi];
                    if (q_len[qd] >= q_cap[qd]) {
                        stalled = 1;
                        break;
                    }
                    int64_t dst = dest_c[fi];
                    if (dst == 0) {
                        if (int_free <= 0) {
                            stalled = 1;
                            break;
                        }
                        int_free--;
                    } else if (dst == 1) {
                        if (fp_free <= 0) {
                            stalled = 1;
                            break;
                        }
                        fp_free--;
                    }

                    int64_t seq = fi + 1;
                    int64_t slot = seq & RING_MASK;
                    fin_ns[slot] = INFINITY;
                    fin_domain[slot] = -1;
                    int64_t kind = kinds[fi];
                    int mispredicted = 0;
                    if (kind == kind_branch) {
                        access_energy += e_bpred;
                        int outcome = branch_access(&bp, pcs[fi], taken_c[fi],
                                                    targets_c[fi]);
                        bp_stats[0]++; /* lookups */
                        if (outcome != BRANCH_HIT) {
                            bp_stats[outcome]++; /* direction / BTB target */
                            mispredicted = 1;
                        }
                    }
                    int qn = q_len[qd];
                    q_seq[qd][qn] = seq;
                    q_t[qd][qn] = t;
                    q_retry[qd][qn] = 0.0;
                    q_len[qd] = qn + 1;
                    q_writes[qd]++;
                    if (!active[qd]) {
                        /* regulator advance_to(t) */
                        double dt = t - reg_last[qd];
                        reg_last[qd] = t;
                        double qfreq = reg_cur[qd];
                        if (dt > 0.0 && reg_cur[qd] != reg_tgt[qd]) {
                            double max_delta = dt * reg_slew[qd];
                            double gap = reg_tgt[qd] - reg_cur[qd];
                            if (fabs(gap) <= max_delta) {
                                reg_cur[qd] = reg_tgt[qd];
                                reg_slew_acc[qd] += fabs(gap) / reg_slew[qd];
                            } else {
                                reg_cur[qd] += gap > 0 ? max_delta : -max_delta;
                                reg_slew_acc[qd] += dt;
                            }
                            qfreq = reg_cur[qd];
                        }
                        slewing[qd] = qfreq != reg_tgt[qd];
                        if (qfreq != cur_freq[qd]) {
                            cur_freq[qd] = qfreq;
                            cur_period[qd] = 1e3 / qfreq;
                            double v = vmin + (qfreq - fmin) * vslope;
                            cur_vscale[qd] = v * v * vmax_sq_inv;
                        }
                        double edge = edge_ns[qd];
                        if (t > edge) {
                            double period = cur_period[qd];
                            double skipped = ceil((t - edge) / period);
                            edge_ns[qd] = edge + skipped * period;
                            cycle_idx[qd] += (int64_t)skipped;
                            acc_clock[qd] += idle_e[qd] * cur_vscale[qd] * skipped;
                            n_idle[qd] += (int64_t)skipped;
                        }
                        active[qd] = 1;
                    }
                    rob_seq[(rob_head + rob_n) % rob_cap] = seq;
                    rob_n++;
                    access_energy += e_disp_fetch;
                    fi++;
                    fetched++;
                    if (mispredicted) {
                        branch_stall_seq = seq;
                        break;
                    }
                }
                fetch_i = fi;
                if (fetched)
                    worked = 1;
                else if (stalled)
                    dispatch_stall_cycles++;
            }

            if (worked) {
                busy_in_interval[0]++;
                n_busy[0]++;
                acc_clock[0] += clock_e[0] * vscale;
                acc_struct[0] += access_energy * vscale;
            } else {
                n_idle[0]++;
                acc_clock[0] += idle_e[0] * vscale;
                if (access_energy != 0.0)
                    acc_struct[0] += access_energy * vscale;
            }
            /* inlined clock advance */
            double step;
            if (mcd_mode) {
                if (jlen[0] == 0
                    && refill_jitter(refill, 0, &jbuf[0], &jlen[0], &tstate) < 0) {
                    py_error = 1;
                    break;
                }
                step = cur_period[0] + jbuf[0][--jlen[0]];
                if (step < MIN_STEP_NS)
                    step = MIN_STEP_NS;
            } else {
                step = cur_period[0];
            }
            edge_ns[0] = t + step;
            cycle_idx[0]++;

        } else {
            /* ---- issue domain ---- */
            int64_t *seqs = q_seq[d];
            double *ts = q_t[d];
            double *retries = q_retry[d];
            int qn = q_len[d];
            q_occ[d] += qn;
            int issued_any = 0;
            double access_energy = 0.0;
            double e_issue = e_issue_a[d];
            double e_simple = e_simple_a[d];
            double e_complex = e_complex_a[d];
            double cross_thresh = mcd_mode ? window : 0.5 * cur_period[d];
            int64_t cyc = cycle_idx[d];
            double period = cur_period[d];
            int64_t sfree = simple_w[d];
            int64_t cfree = complex_w[d];
            for (int ei = 0; ei < qn; ei++) {
                if (retries[ei] > t)
                    continue;
                if (t - ts[ei] < cross_thresh)
                    break;
                int64_t seq = seqs[ei];
                int64_t p1 = p1_c[seq - 1];
                if (p1) {
                    int64_t slot1 = p1 & RING_MASK;
                    int fd = fin_domain[slot1];
                    if (fd < 0)
                        continue;
                    if (fd == d) {
                        if (fin_cycle[slot1] > cyc)
                            continue;
                    } else {
                        double nb = fin_ns[slot1] + cross_thresh;
                        if (nb > t + EPS_NS) {
                            retries[ei] = nb;
                            continue;
                        }
                    }
                }
                int64_t p2 = p2_c[seq - 1];
                if (p2) {
                    int64_t slot2 = p2 & RING_MASK;
                    int fd = fin_domain[slot2];
                    if (fd < 0)
                        continue;
                    if (fd == d) {
                        if (fin_cycle[slot2] > cyc)
                            continue;
                    } else {
                        double nb = fin_ns[slot2] + cross_thresh;
                        if (nb > t + EPS_NS) {
                            retries[ei] = nb;
                            continue;
                        }
                    }
                }
                int64_t kind = kinds[seq - 1];
                double lat;
                int64_t lat_c;
                if (complex_op[kind]) {
                    if (cfree <= 0)
                        continue;
                    cfree--;
                    access_energy += e_complex;
                    lat_c = lat_cycles[kind];
                    lat = (double)lat_c * period;
                } else if (sfree <= 0) {
                    if (cfree <= 0)
                        break;
                    continue;
                } else if (kind == kind_load) {
                    sfree--;
                    int level =
                        hierarchy_access(&l1d, &l2, addrs[seq - 1] >> shift);
                    count_access(cache_stats, 2, level);
                    access_energy += e_simple; /* L1D probe */
                    if (level == LEVEL_L1) {
                        lat = (double)l1_cycles * period;
                        lat_c = l1_cycles;
                    } else if (level == LEVEL_L2) {
                        access_energy += e_l2;
                        lat = (double)l2_cycles * period;
                        lat_c = l2_cycles;
                    } else {
                        access_energy += e_l2;
                        memory_accesses++;
                        lat = (double)l2_cycles * period + mem_latency
                              + 2.0 * window;
                        lat_c = (int64_t)(lat / period) + 1;
                    }
                } else if (kind == kind_store) {
                    sfree--;
                    count_access(cache_stats, 2,
                                 hierarchy_access(&l1d, &l2,
                                                  addrs[seq - 1] >> shift));
                    access_energy += e_simple;
                    lat = period;
                    lat_c = 1;
                } else {
                    sfree--;
                    access_energy += e_simple;
                    lat_c = lat_cycles[kind];
                    lat = (double)lat_c * period;
                }
                /* Issue! */
                double finish = t + lat;
                int64_t slot = seq & RING_MASK;
                fin_ns[slot] = finish;
                fin_cycle[slot] = cyc + lat_c;
                fin_domain[slot] = d;
                access_energy += e_issue;
                issued_any = 1;
                if (seq == branch_stall_seq) {
                    branch_stall_seq = -1;
                    double resume = finish + window
                                    + (double)mispredict_penalty * cur_period[0];
                    if (resume > fetch_resume_ns)
                        fetch_resume_ns = resume;
                }
                if (sfree <= 0 && cfree <= 0)
                    break;
            }
            if (issued_any) {
                int w = 0;
                for (int ei = 0; ei < qn; ei++) {
                    if (fin_domain[seqs[ei] & RING_MASK] == -1) {
                        seqs[w] = seqs[ei];
                        ts[w] = ts[ei];
                        retries[w] = retries[ei];
                        w++;
                    }
                }
                q_len[d] = w;
                busy_in_interval[d]++;
                n_busy[d]++;
                acc_clock[d] += clock_e[d] * vscale;
                acc_struct[d] += access_energy * vscale;
                if (w == 0)
                    active[d] = 0;
            } else {
                n_idle[d]++;
                acc_clock[d] += idle_e[d] * vscale;
            }
            /* inlined clock advance */
            double step;
            if (mcd_mode) {
                if (jlen[d] == 0
                    && refill_jitter(refill, d, &jbuf[d], &jlen[d], &tstate) < 0) {
                    py_error = 1;
                    break;
                }
                step = cur_period[d] + jbuf[d][--jlen[d]];
                if (step < MIN_STEP_NS)
                    step = MIN_STEP_NS;
            } else {
                step = cur_period[d];
            }
            edge_ns[d] = t + step;
            cycle_idx[d]++;
        }

        /* Safety valve: the trace must keep draining. */
        if (fetch_i >= total && rob_n == 0 && retired < total) {
            error = "trace exhausted";
            break;
        }
    }

    double wall = edge_ns[0];
    if (!py_error && error == NULL) {
        /* Final catch-up: idle tails of inactive domains. */
        for (int i = 1; i < 4; i++) {
            double dt = wall - reg_last[i];
            reg_last[i] = wall;
            double ifreq = reg_cur[i];
            if (dt > 0.0 && reg_cur[i] != reg_tgt[i]) {
                double max_delta = dt * reg_slew[i];
                double gap = reg_tgt[i] - reg_cur[i];
                if (fabs(gap) <= max_delta) {
                    reg_cur[i] = reg_tgt[i];
                    reg_slew_acc[i] += fabs(gap) / reg_slew[i];
                } else {
                    reg_cur[i] += gap > 0 ? max_delta : -max_delta;
                    reg_slew_acc[i] += dt;
                }
                ifreq = reg_cur[i];
            }
            if (ifreq != cur_freq[i]) {
                cur_freq[i] = ifreq;
                double v = vmin + (ifreq - fmin) * vslope;
                cur_vscale[i] = v * v * vmax_sq_inv;
            }
            double edge = edge_ns[i];
            if (wall > edge) {
                double period = cur_period[i];
                double skipped = ceil((wall - edge) / period);
                edge_ns[i] = edge + skipped * period;
                cycle_idx[i] += (int64_t)skipped;
                acc_clock[i] += idle_e[i] * cur_vscale[i] * skipped;
                n_idle[i] += (int64_t)skipped;
            }
        }
    }

    rs->retired = retired;
    rs->wall = wall;
    rs->memory_accesses = memory_accesses;
    rs->dispatch_stall_cycles = dispatch_stall_cycles;
    rs->int_free = int_free;
    rs->fp_free = fp_free;
    rs->error = error;
    *tstate_p = tstate;
    return py_error ? -1 : 0;
}

/* Stage 3: fold cache/predictor/BTB state back into the owning Python
 * objects and build the per-run result dict (GIL held). */
static PyObject *
writeback_run(RunState *rs)
{
    if (writeback_uarch(&rs->u) < 0)
        return NULL;
    return Py_BuildValue(
        "{s:L,s:d,s:L,s:L,s:L,s:L,s:s}", "retired", (long long)rs->retired,
        "wall", rs->wall, "memory_accesses", (long long)rs->memory_accesses,
        "dispatch_stall_cycles", (long long)rs->dispatch_stall_cycles,
        "int_free", (long long)rs->int_free, "fp_free", (long long)rs->fp_free,
        "error", rs->error);
}

/* ------------------------------------------------------- entry points */

static PyObject *
run_compiled(PyObject *self, PyObject *args)
{
    PyObject *a; /* argument dict */
    if (!PyArg_ParseTuple(args, "O!", &PyDict_Type, &a))
        return NULL;

    RunState *rs = PyMem_Calloc(1, sizeof(RunState));
    if (rs == NULL)
        return PyErr_NoMemory();
    PyObject *result = NULL;
    if (marshal_run(a, rs) == 0) {
        PyThreadState *tstate = PyEval_SaveThread();
        int rc = compute_run(rs, &tstate);
        PyEval_RestoreThread(tstate);
        if (rc == 0)
            result = writeback_run(rs);
    }
    free_run(rs);
    PyMem_Free(rs);
    return result;
}

static PyObject *
run_batch(PyObject *self, PyObject *args)
{
    PyObject *list; /* list of argument dicts, one per run */
    if (!PyArg_ParseTuple(args, "O!", &PyList_Type, &list))
        return NULL;

    Py_ssize_t n = PyList_GET_SIZE(list);
    RunState *runs = PyMem_Calloc(n ? (size_t)n : 1, sizeof(RunState));
    if (runs == NULL)
        return PyErr_NoMemory();

    PyObject *out = NULL;
    int failed = 0;

    /* Stage 1: marshal every run with the GIL held. */
    for (Py_ssize_t i = 0; i < n && !failed; i++) {
        PyObject *a = PyList_GET_ITEM(list, i);
        if (!PyDict_Check(a)) {
            PyErr_SetString(PyExc_TypeError,
                            "hotpath: run_batch wants a list of dicts");
            failed = 1;
        } else if (marshal_run(a, &runs[i]) < 0) {
            failed = 1;
        }
    }

    /* Stage 2: one GIL release for the whole batch.  The only Python
     * crossings until every run has computed are the per-run
     * refill/rollover bridge shims. */
    if (!failed) {
        PyThreadState *tstate = PyEval_SaveThread();
        for (Py_ssize_t i = 0; i < n; i++) {
            if (compute_run(&runs[i], &tstate) < 0) {
                failed = 1; /* callback raised; exception is pending */
                break;
            }
        }
        PyEval_RestoreThread(tstate);
    }

    /* Stage 3: per-run writeback into the owning Python objects. */
    if (!failed) {
        out = PyList_New(n);
        if (out != NULL) {
            for (Py_ssize_t i = 0; i < n; i++) {
                PyObject *res = writeback_run(&runs[i]);
                if (res == NULL) {
                    Py_CLEAR(out);
                    break;
                }
                PyList_SET_ITEM(out, i, res);
            }
        }
    }

    for (Py_ssize_t i = 0; i < n; i++)
        free_run(&runs[i]);
    PyMem_Free(runs);
    return out;
}

/* MCDCore.warm_up over a compiled trace: replay max(0, min(limit, n))
 * instructions through the caches, the predictor tables and the BTB
 * only — no timing, no statistics — with the GIL released, then write
 * the state back into its owning lists.  Returns the replayed count. */
static PyObject *
warm_up(PyObject *self, PyObject *args)
{
    PyObject *a; /* argument dict */
    if (!PyArg_ParseTuple(args, "O!", &PyDict_Type, &a))
        return NULL;

    ViewPool pool;
    pool.count = 0;
    Uarch u;
    memset(&u, 0, sizeof(u));
    PyObject *result = NULL;
    long long n, limit, kind_load, kind_store, kind_branch;
    if (get_long(a, "n", &n) || get_long(a, "limit", &limit)
        || get_long(a, "kind_load", &kind_load)
        || get_long(a, "kind_store", &kind_store)
        || get_long(a, "kind_branch", &kind_branch))
        goto done;
    const int64_t *kinds = get_column(a, "kinds", &pool, 0, n);
    const int64_t *pcs = get_column(a, "pcs", &pool, 0, n);
    const int64_t *addrs = get_column(a, "addrs", &pool, 0, n);
    const int64_t *taken = get_column(a, "taken", &pool, 0, n);
    const int64_t *targets = get_column(a, "targets", &pool, 0, n);
    const int64_t *newline = get_column(a, "newline", &pool, 0, n);
    if (!kinds || !pcs || !addrs || !taken || !targets || !newline
        || marshal_uarch(a, &u) < 0)
        goto done;

    const int64_t end = limit < 0 ? 0 : (limit < n ? limit : n);
    Py_BEGIN_ALLOW_THREADS
    const int shift = u.shift;
    const TagSets l1i = u.l1i, l1d = u.l1d, l2 = u.l2;
    const Predictor bp = u.bp;
    for (int64_t i = 0; i < end; i++) {
        if (newline[i])
            hierarchy_access(&l1i, &l2, pcs[i] >> shift);
        const int64_t kind = kinds[i];
        if (kind == kind_branch)
            branch_access(&bp, pcs[i], taken[i], targets[i]);
        else if (kind == kind_load || kind == kind_store)
            hierarchy_access(&l1d, &l2, addrs[i] >> shift);
    }
    Py_END_ALLOW_THREADS
    if (writeback_uarch(&u) == 0)
        result = PyLong_FromLongLong(end);
done:
    free_uarch(&u);
    release_views(&pool);
    return result;
}

static PyMethodDef hotpath_methods[] = {
    {"run_compiled", run_compiled, METH_VARARGS,
     "Run the batched core loop over compiled-trace columns."},
    {"run_batch", run_batch, METH_VARARGS,
     "Run a vector of compiled simulations under one GIL release."},
    {"warm_up", warm_up, METH_VARARGS,
     "Replay a compiled trace's head through the caches, predictor and BTB."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef hotpath_module = {
    PyModuleDef_HEAD_INIT, "_hotpath",
    "Native batched MCD core loop (byte-identical to the Python paths).", -1,
    hotpath_methods,
};

PyMODINIT_FUNC
PyInit__hotpath(void)
{
    return PyModule_Create(&hotpath_module);
}
