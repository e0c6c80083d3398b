/* Native batched core loop for compiled traces.
 *
 * A 1:1 translation of the event sequence of MCDCore's pure-Python
 * reference interpreter (MCDCore._run_generator), byte-identical to it:
 * same edge selection, same regulator calls, same jitter-stream
 * consumption, same floating-point accumulation order.  All arithmetic
 * is IEEE double precision; the build disables FP contraction
 * (-ffp-contract=off) so a*b+c rounds exactly as CPython rounds it.
 *
 * A compiled trace comes in as its seven base columns, read-only
 * buffers in the narrow dtypes repro.uarch.compiled_trace.COLUMNS fixes
 * (kinds uint8, src1/src2 uint16, pcs/targets uint32, addrs int64,
 * taken uint8), their formats and values checked once per call.  What
 * the reference interpreter derives per instruction is derived here the
 * same way: destination register type and issue domain from the two
 * NUM_CLASSES-entry ISA tables, producers from the dependency
 * distances, and new fetch lines from the previous one.  The
 * cache, predictor and BTB state is the owning Python objects' own
 * flat array('q') buffers (SetAssociativeCache, CombiningBranchPredictor,
 * BranchTargetBuffer), which the C side validates once and then reads
 * and updates in place: no conversion at entry, nothing to write back
 * at exit.  Three stock controllers run inline at each interval
 * rollover, marshalled into flat buffers: Attack/Decay (paper Listing 1,
 * plus the regulator's request quantisation), the off-line profiler (a
 * log of each interval's raw observables, from which Python derives the
 * profile) and the off-line schedule replay (pre-quantised rows of four
 * MHz).  Such a run makes zero per-interval Python crossings.  Custom
 * controllers and interval recording fall back to the per-interval
 * `rollover` Python callback.  MCD clock jitter is drawn here too, from
 * each clock's own numpy bit generator, bit for bit as
 * GaussianJitter._draw draws it (see "clock jitter" below).  See
 * repro/uarch/native.py for the build/load glue and controller
 * marshalling, and MCDCore.native_marshal for the Python side of the
 * boundary.
 *
 * Execution is staged around a per-run RunState struct so a whole
 * sweep can run on a thread pool inside one process:
 *
 *   1. marshal — all PyObject access, buffer extraction and argument
 *                validation (GIL held);
 *   2. compute — the event loop, pure C over the RunState and the
 *                buffers it views, with the GIL RELEASED
 *                (PyEval_SaveThread).  It draws its own jitter blocks;
 *                its only Python crossing is the per-interval
 *                `rollover` callback, bridged through a shim that
 *                re-acquires the GIL for the call;
 *   3. result  — build the per-run result dict (GIL held); the Python
 *                `finish` closure folds it and the counter buffers into
 *                the owning objects.
 *
 * Three entry points share the stages.  run_compiled drives one RunState
 * through all three.  run_batch amortises the boundary across a sweep
 * cell: it marshals a *vector* of argument dicts up front, releases the
 * GIL once, computes every run back to back, and then builds each run's
 * result — exactly what the single entry does per run, so batched
 * results are byte-identical by construction.  warm_up replays the head
 * of a compiled trace through the caches, the predictor tables and the
 * BTB only (MCDCore.warm_up), with the GIL released; it views the trace
 * and that state through the same marshal_trace and marshal_uarch as
 * the runs, and the run loop touches the state through the same access
 * helpers, so the two cannot drift apart.
 *
 * Reentrancy audit: the only state with static storage duration is the
 * ziggurat's two 256-entry tables (zig_wi, zig_ki), written once by
 * PyInit__hotpath with the GIL held and read-only after that.  Every
 * array, ring buffer, counter, the fetch-line tracker, the idle-scan
 * memo and the jitter sample buffers live on the compute stage's stack
 * or in per-call PyMem allocations.  The writable memory handed in
 * through the argument dict belongs to one core: its cache/predictor/BTB
 * arrays, the per-run tables MCDCore.native_marshal creates, and the
 * states of its four jitter bit generators, which the compute stage
 * advances without numpy's per-generator lock.  No trace column is
 * writable: the columns and the ISA tables are viewed read-only and
 * shared across runs and threads.  No core runs concurrently with
 * itself, so concurrent calls from different threads never share
 * writable memory, which is what makes the thread-pool sweep backend
 * sound.  While a call holds a buffer view, array('q') refuses to
 * resize, so the GIL-free stages cannot see a buffer move.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <numpy/random/distributions.h>
#include <stdint.h>
#include <string.h>

#define RING 2048
#define RING_MASK (RING - 1)
#define EPS_NS 1e-6
#define MIN_STEP_NS 1e-6
#define QMAX 256 /* upper bound on issue-queue capacity */
/* Trace-format constants: repro.uarch.isa.NUM_CLASSES and
 * repro.uarch.trace.MAX_DEP_DISTANCE, exported as module attributes of
 * the same names so the Python side can check they agree. */
#define NUM_CLASSES 7
#define MAX_DEP_DISTANCE 512
_Static_assert(RING > MAX_DEP_DISTANCE,
               "a producer's completion slot must be live when its consumers dispatch");
/* What the interval rollover runs besides the `rollover` callback
 * (the native_ctrl argument): nothing, Attack/Decay (paper Listing 1),
 * the off-line profiler's log or the off-line schedule replay; and the
 * doubles per interval in a profile log.  Exported as module
 * attributes, like the trace-format constants, and equal to
 * repro.uarch.native's CTRL_* and LOG_FIELDS. */
enum { CTRL_NONE, CTRL_ATTACK_DECAY, CTRL_PROFILE, CTRL_REPLAY };
#define LOG_FIELDS 12

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

/* The buffer views one call may hold: a run takes at most 61 (48 for
 * its columns, tables and Attack/Decay's registers, the largest
 * controller mode, and 13 for the cache, predictor and BTB state);
 * take_view raises rather than overflow. */
#define MAX_VIEWS 64

typedef struct {
    Py_buffer views[MAX_VIEWS];
    int count;
} ViewPool;

/* A C-contiguous view of the buffer named key, held in *pool. */
static Py_buffer *
take_view(PyObject *dict, const char *key, ViewPool *pool, int flags)
{
    PyObject *v = PyDict_GetItemString(dict, key);
    if (v == NULL) {
        PyErr_Format(PyExc_KeyError, "hotpath: missing buffer arg %s", key);
        return NULL;
    }
    if (pool->count == MAX_VIEWS) {
        PyErr_SetString(PyExc_RuntimeError, "hotpath: buffer view pool is full");
        return NULL;
    }
    Py_buffer *view = &pool->views[pool->count];
    if (PyObject_GetBuffer(v, view, PyBUF_C_CONTIGUOUS | flags) < 0)
        return NULL;
    pool->count++;
    return view;
}

/* view's length in itemsize-byte items, if it holds at least min_len. */
static int
view_length(const Py_buffer *view, const char *key, Py_ssize_t itemsize,
            Py_ssize_t min_len, Py_ssize_t *len)
{
    *len = view->len / itemsize;
    if (*len < min_len) {
        PyErr_Format(PyExc_ValueError,
                     "hotpath: %s has %zd entries, want at least %zd", key, *len,
                     min_len);
        return -1;
    }
    return 0;
}

/* A buffer of 8-byte items with at least min_len of them (its length
 * lands in *len_out when that is not NULL). */
static void *
get_buffer(PyObject *dict, const char *key, ViewPool *pool, int writable,
           Py_ssize_t min_len, Py_ssize_t *len_out)
{
    Py_buffer *view = take_view(dict, key, pool, writable ? PyBUF_WRITABLE : 0);
    if (view == NULL)
        return NULL;
    if (view->itemsize != 8) {
        PyErr_Format(PyExc_TypeError, "hotpath: %s has itemsize %zd, want 8",
                     key, view->itemsize);
        return NULL;
    }
    Py_ssize_t len;
    if (view_length(view, key, 8, min_len, &len) < 0)
        return NULL;
    if (len_out != NULL)
        *len_out = len;
    return view->buf;
}

/* view's struct format string ("B" when the exporter gives none). */
static const char *
view_format(const Py_buffer *view)
{
    return view->format != NULL ? view->format : "B";
}

/* Whether view's format is one native-order struct code out of codes
 * (such as numpy's "B", "H", "I", "l" or "d"), itemsize bytes wide. */
static int
format_is(const Py_buffer *view, const char *codes, Py_ssize_t itemsize)
{
    const char *format = view_format(view);
    const char *code = format[0] == '@' || format[0] == '=' ? format + 1 : format;
    return code[0] != '\0' && code[1] == '\0' && strchr(codes, code[0]) != NULL
           && view->itemsize == itemsize;
}

/* A read-only trace column of at least min_len native-order integers,
 * itemsize bytes each, signed or not as is_signed says: its buffer
 * format and itemsize are both checked. */
static const void *
get_column(PyObject *dict, const char *key, ViewPool *pool, int is_signed,
           Py_ssize_t itemsize, Py_ssize_t min_len)
{
    Py_buffer *view = take_view(dict, key, pool, PyBUF_FORMAT);
    if (view == NULL)
        return NULL;
    if (!format_is(view, is_signed ? "bhilq" : "BHILQ", itemsize)) {
        PyErr_Format(PyExc_TypeError,
                     "hotpath: column %s has format '%s' and itemsize %zd, "
                     "want %s integers of %zd bytes",
                     key, view_format(view), view->itemsize,
                     is_signed ? "signed" : "unsigned", itemsize);
        return NULL;
    }
    Py_ssize_t len;
    if (view_length(view, key, itemsize, min_len, &len) < 0)
        return NULL;
    return view->buf;
}

/* A buffer of at least min_len native float64 values, format checked
 * (its length lands in *len_out when that is not NULL). */
static double *
get_doubles(PyObject *dict, const char *key, ViewPool *pool, int writable,
            Py_ssize_t min_len, Py_ssize_t *len_out)
{
    Py_buffer *view =
        take_view(dict, key, pool, PyBUF_FORMAT | (writable ? PyBUF_WRITABLE : 0));
    if (view == NULL)
        return NULL;
    if (!format_is(view, "d", 8)) {
        PyErr_Format(PyExc_TypeError,
                     "hotpath: %s has format '%s' and itemsize %zd, want float64",
                     key, view_format(view), view->itemsize);
        return NULL;
    }
    Py_ssize_t len;
    if (view_length(view, key, 8, min_len, &len) < 0)
        return NULL;
    if (len_out != NULL)
        *len_out = len;
    return view->buf;
}

static void
release_views(ViewPool *pool)
{
    for (int i = 0; i < pool->count; i++)
        PyBuffer_Release(&pool->views[i]);
    pool->count = 0;
}

/* ------------------------------------- caches, predictor and BTB state */

/* One set-associative array, most recently used way last in each set:
 * tags[set * ways + j] for j < cnt[set].  The BTB keeps each entry's
 * target beside its tag in tgts; caches leave tgts NULL.  All three
 * point into the owning Python object's array('q') buffers. */
typedef struct {
    int64_t *tags, *tgts, *cnt;
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

/* The cache, predictor and BTB state every entry point views in place. */
typedef struct {
    int shift; /* cache line shift */
    TagSets l1i, l1d, l2;
    Predictor bp;
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
    const int cnt = (int)c->cnt[si];
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
    const int cnt = (int)b->cnt[si];
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
    int cnt = (int)b->cnt[si];
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

/* View one set-associative array's buffers, named <name>_tags,
 * <name>_counts and (BTB only) <name>_targets, after checking them
 * against <name>_nsets and <name>_ways: exact lengths, and every set's
 * count within [0, ways]. */
static int
marshal_sets(PyObject *a, ViewPool *pool, const char *name, int btb,
             TagSets *c)
{
    char key[32];
    long long nsets, ways;
    snprintf(key, sizeof key, "%s_nsets", name);
    if (get_long(a, key, &nsets))
        return -1;
    snprintf(key, sizeof key, "%s_ways", name);
    if (get_long(a, key, &ways))
        return -1;
    if (nsets < 1 || ways < 1 || ways > INT32_MAX || nsets > INT64_MAX / ways) {
        PyErr_Format(PyExc_ValueError, "hotpath: bad %s geometry", name);
        return -1;
    }
    Py_ssize_t n_tags, n_cnt, n_tgts = nsets * ways;
    snprintf(key, sizeof key, "%s_tags", name);
    if ((c->tags = get_buffer(a, key, pool, 1, 0, &n_tags)) == NULL)
        return -1;
    snprintf(key, sizeof key, "%s_counts", name);
    if ((c->cnt = get_buffer(a, key, pool, 1, 0, &n_cnt)) == NULL)
        return -1;
    c->tgts = NULL;
    if (btb) {
        snprintf(key, sizeof key, "%s_targets", name);
        if ((c->tgts = get_buffer(a, key, pool, 1, 0, &n_tgts)) == NULL)
            return -1;
    }
    if (n_tags != nsets * ways || n_tgts != nsets * ways || n_cnt != nsets) {
        PyErr_Format(PyExc_ValueError,
                     "hotpath: %s buffers do not match %lld sets x %lld ways",
                     name, nsets, ways);
        return -1;
    }
    for (Py_ssize_t i = 0; i < nsets; i++) {
        if (c->cnt[i] < 0 || c->cnt[i] > ways) {
            PyErr_Format(PyExc_ValueError, "hotpath: %s set %zd holds %lld ways",
                         name, i, (long long)c->cnt[i]);
            return -1;
        }
    }
    c->nsets = nsets;
    c->ways = (int)ways;
    return 0;
}

/* View the cache, predictor and BTB state named in the argument dict
 * (GIL held), writable and in place.  Malformed state raises and is
 * never read: the compute stage indexes every table only through
 * geometry checked here.  On failure a Python exception is set; the
 * views already taken stay in *pool for release_views. */
static int
marshal_uarch(PyObject *a, ViewPool *pool, Uarch *u)
{
    long long shift, hist_mask;
    Predictor *bp = &u->bp;
    if (get_long(a, "line_shift", &shift) || get_long(a, "hist_mask", &hist_mask)
        || marshal_sets(a, pool, "l1i", 0, &u->l1i)
        || marshal_sets(a, pool, "l1d", 0, &u->l1d)
        || marshal_sets(a, pool, "l2", 0, &u->l2)
        || marshal_sets(a, pool, "btb", 1, &bp->btb))
        return -1;
    if (shift < 0 || shift > 62 || hist_mask < 0) {
        PyErr_SetString(PyExc_ValueError, "hotpath: bad line shift or history mask");
        return -1;
    }
    u->shift = (int)shift;
    bp->hist_mask = hist_mask;
    bp->hist = get_buffer(a, "hist", pool, 1, 1, &bp->hist_len);
    bp->pl2 = get_buffer(a, "pl2", pool, 1, 1, &bp->pl2_len);
    bp->bim = get_buffer(a, "bim", pool, 1, 1, &bp->bim_len);
    bp->meta = get_buffer(a, "meta", pool, 1, 1, &bp->meta_len);
    if (!bp->hist || !bp->pl2 || !bp->bim || !bp->meta)
        return -1;
    /* A history register indexes the pattern table: keep it in range. */
    for (Py_ssize_t i = 0; i < bp->hist_len; i++) {
        if (bp->hist[i] < 0 || bp->hist[i] > hist_mask) {
            PyErr_SetString(PyExc_ValueError, "hotpath: history out of range");
            return -1;
        }
    }
    return 0;
}

/* ------------------------------------------------------ trace columns */

/* The seven base columns of a compiled trace, in the narrow dtypes
 * repro.uarch.compiled_trace.COLUMNS fixes, viewed read-only.  Nothing
 * else about the trace comes in: the loops derive each instruction's
 * destination register type and issue domain from the ISA tables, its
 * producers from src1/src2 and its fetch lines from pcs. */
typedef struct {
    const uint8_t *kinds, *taken;
    const uint16_t *src1, *src2;
    const uint32_t *pcs, *targets;
    const int64_t *addrs;
} Trace;

/* The column values the loops index with, folded over a trace: the
 * largest class, the largest dependency distance, and the OR of every
 * address (negative exactly when some address is). */
typedef struct {
    uint8_t kind;
    uint16_t src;
    int64_t addr_bits;
} ColumnBounds;

/* Fold count instructions from start into *b. */
static ALWAYS_INLINE void
fold_bounds(const Trace *tr, int64_t start, int64_t count, ColumnBounds *b)
{
    uint8_t kind = b->kind;
    uint16_t src = b->src;
    int64_t addr_bits = b->addr_bits;
    for (int64_t i = start; i < start + count; i++)
        kind = tr->kinds[i] > kind ? tr->kinds[i] : kind;
    for (int64_t i = start; i < start + count; i++) {
        src = tr->src1[i] > src ? tr->src1[i] : src;
        src = tr->src2[i] > src ? tr->src2[i] : src;
    }
    for (int64_t i = start; i < start + count; i++)
        addr_bits |= tr->addrs[i];
    b->kind = kind;
    b->src = src;
    b->addr_bits = addr_bits;
}

/* Instructions per fold_bounds block: a fixed trip count lets the -O2
 * vectoriser take its loops, which makes the check ~4x faster (~0.5 ns
 * per instruction). */
#define BOUNDS_BLOCK 64

/* View the seven columns named in the argument dict, each at least n
 * long, and check once per call the values the loops index with:
 * instruction classes below NUM_CLASSES (they index the ISA, latency and
 * complex-op tables), dependency distances of at most MAX_DEP_DISTANCE
 * (a producer's completion slot must still be live) and non-negative
 * addresses (their lines index cache sets).  On failure a Python
 * exception is set; the views already taken stay in *pool. */
static int
marshal_trace(PyObject *a, ViewPool *pool, int64_t n, Trace *tr)
{
    if (n < 0) {
        PyErr_SetString(PyExc_ValueError, "hotpath: negative trace length");
        return -1;
    }
    if ((tr->kinds = get_column(a, "kinds", pool, 0, 1, n)) == NULL
        || (tr->src1 = get_column(a, "src1", pool, 0, 2, n)) == NULL
        || (tr->src2 = get_column(a, "src2", pool, 0, 2, n)) == NULL
        || (tr->pcs = get_column(a, "pcs", pool, 0, 4, n)) == NULL
        || (tr->addrs = get_column(a, "addrs", pool, 1, 8, n)) == NULL
        || (tr->taken = get_column(a, "taken", pool, 0, 1, n)) == NULL
        || (tr->targets = get_column(a, "targets", pool, 0, 4, n)) == NULL)
        return -1;
    ColumnBounds b = {0, 0, 0};
    int64_t i = 0;
    for (; i + BOUNDS_BLOCK <= n; i += BOUNDS_BLOCK)
        fold_bounds(tr, i, BOUNDS_BLOCK, &b);
    fold_bounds(tr, i, n - i, &b);
    if (b.kind >= NUM_CLASSES) {
        PyErr_Format(PyExc_ValueError,
                     "hotpath: kinds holds class %d, want below %d", b.kind,
                     NUM_CLASSES);
        return -1;
    }
    if (b.src > MAX_DEP_DISTANCE) {
        PyErr_Format(PyExc_ValueError,
                     "hotpath: src1/src2 hold dependency distance %d, "
                     "want at most %d",
                     b.src, MAX_DEP_DISTANCE);
        return -1;
    }
    if (b.addr_bits < 0) {
        PyErr_SetString(PyExc_ValueError, "hotpath: addrs holds a negative address");
        return -1;
    }
    return 0;
}

/* -------------------------------------------------------- clock jitter */

/* Each MCD domain clock adds one N(0, sigma) sample to every cycle it
 * runs, drawn from its GaussianJitter's numpy bit generator in blocks
 * of `block` samples consumed from the tail.  A block is exactly what
 * GaussianJitter._draw returns: rng.normal(0.0, sigma, block), which is
 * 0.0 + sigma * z per sample with z from numpy's random_standard_normal,
 * then np.clip to +-clip when clip > 0.  The compute stage draws every
 * block itself, so a run makes no Python crossing for jitter.
 *
 * z comes from numpy's own ziggurat.  Its fast path (98.5 % of draws)
 * is inlined below with a branchless sign: numpy negates through a
 * data-dependent branch, mispredicted on half the draws, and that
 * branch, not the generator, was most of a sample's cost.  A draw
 * that leaves the fast path hands its word back to numpy's
 * random_standard_normal through a replay generator, so numpy's code
 * does the wedge and the tail.  The fast path's two tables are not
 * copied from numpy's source: module init probes them out of numpy's
 * function and then checks the fast path against it bit for bit
 * (derive_ziggurat), so a numpy whose draw differs fails the import
 * instead of drifting.
 *
 * These two tables are the file's only static state: written once by
 * PyInit__hotpath with the GIL held, read-only after that. */
static double zig_wi[256];   /* x = rabs * wi[idx] */
static uint64_t zig_ki[256]; /* fast path while rabs < ki[idx] */

#define ZIG_RABS_BITS 52
#define ZIG_RABS_MASK ((UINT64_C(1) << ZIG_RABS_BITS) - 1)

/* The generator numpy's slow path runs on: its first word is the one the
 * fast path rejected, every later call forwards to the real generator. */
typedef struct {
    bitgen_t *source;
    uint64_t first;
    int pending;
} Replay;

static uint64_t
replay_uint64(void *st)
{
    Replay *rp = st;
    if (rp->pending) {
        rp->pending = 0;
        return rp->first;
    }
    return rp->source->next_uint64(rp->source->state);
}

static uint32_t
replay_uint32(void *st)
{
    Replay *rp = st;
    return rp->source->next_uint32(rp->source->state);
}

static double
replay_double(void *st)
{
    Replay *rp = st;
    return rp->source->next_double(rp->source->state);
}

/* random_standard_normal(bg), bit for bit and word for word: the word's
 * low byte picks the layer, bit 8 is the sign, bits 9..60 are rabs. */
static ALWAYS_INLINE double
standard_normal(bitgen_t *bg)
{
    const uint64_t r = bg->next_uint64(bg->state);
    const int idx = (int)(r & 0xff);
    const uint64_t rabs = (r >> 9) & ZIG_RABS_MASK;
    if (rabs < zig_ki[idx]) {
        double x = (double)rabs * zig_wi[idx];
        uint64_t bits;
        memcpy(&bits, &x, sizeof bits);
        bits ^= (r >> 8 & 1) << 63;
        memcpy(&x, &bits, sizeof x);
        return x;
    }
    Replay rp = {bg, r, 1};
    bitgen_t replay = {&rp, replay_uint64, replay_uint32, replay_double,
                       replay_uint64};
    return random_standard_normal(&replay);
}

/* One domain's stream: the core's bit generator (owned by its
 * GaussianJitter, borrowed through the capsule) and _draw's parameters. */
typedef struct {
    bitgen_t *bg;
    double sigma, clip;
    Py_ssize_t block;
} JitterStream;

/* GaussianJitter._draw into buf[0 .. block). */
static void
draw_jitter(const JitterStream *js, double *buf)
{
    bitgen_t *bg = js->bg;
    const double sigma = js->sigma, hi = js->clip, lo = -js->clip;
    const int clip = hi > 0;
    for (Py_ssize_t i = 0; i < js->block; i++) {
        double x = 0.0 + sigma * standard_normal(bg);
        if (clip) {
            x = x > lo ? x : lo; /* np.clip: min(max(x, lo), hi) */
            x = x < hi ? x : hi;
        }
        buf[i] = x;
    }
}

/* A scripted generator for probing numpy's draw: its first word is
 * `first`, later words are 0 (layer 0, rabs 0, which ends any draw),
 * and every next_double returns 0.5 (which accepts any tail candidate)
 * and is counted: only the slow path calls next_double. */
typedef struct {
    uint64_t first;
    int words, doubles;
} Script;

static uint64_t
script_uint64(void *st)
{
    Script *s = st;
    return s->words++ ? 0 : s->first;
}

static uint32_t
script_uint32(void *st)
{
    (void)st;
    return 0;
}

static double
script_double(void *st)
{
    Script *s = st;
    s->doubles++;
    return 0.5;
}

/* numpy's draw for the single word `word`; *slow says whether it left
 * the fast path. */
static double
probe_normal(uint64_t word, int *slow)
{
    Script s = {word, 0, 0};
    bitgen_t bg = {&s, script_uint64, script_uint32, script_double, script_uint64};
    const double x = random_standard_normal(&bg);
    *slow = s.doubles > 0;
    return x;
}

/* Whether standard_normal and numpy's draw agree on the word `word`:
 * the same bits, from the same words and doubles. */
static int
agrees_on(uint64_t word)
{
    Script want = {word, 0, 0}, got = {word, 0, 0};
    bitgen_t want_bg = {&want, script_uint64, script_uint32, script_double,
                        script_uint64};
    bitgen_t got_bg = {&got, script_uint64, script_uint32, script_double,
                       script_uint64};
    const double x = random_standard_normal(&want_bg);
    const double y = standard_normal(&got_bg);
    return memcmp(&x, &y, sizeof x) == 0 && want.words == got.words
           && want.doubles == got.doubles;
}

/* The self-check's generator: splitmix64, with numpy's 53-bit doubles. */
static uint64_t
splitmix_uint64(void *st)
{
    uint64_t z = (*(uint64_t *)st += UINT64_C(0x9e3779b97f4a7c15));
    z = (z ^ (z >> 30)) * UINT64_C(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)) * UINT64_C(0x94d049bb133111eb);
    return z ^ (z >> 31);
}

static uint32_t
splitmix_uint32(void *st)
{
    return (uint32_t)(splitmix_uint64(st) >> 32);
}

static double
splitmix_double(void *st)
{
    return (double)(splitmix_uint64(st) >> 11) * (1.0 / 9007199254740992.0);
}

#define ZIG_CHECK_DRAWS (1 << 16)

/* The ImportError of a failed self-check. */
static int
self_check_failed(const char *what, long long which)
{
    PyObject *numpy = PyImport_ImportModule("numpy");
    PyObject *version = numpy ? PyObject_GetAttrString(numpy, "__version__") : NULL;
    Py_XDECREF(numpy);
    if (version != NULL) {
        PyErr_Format(PyExc_ImportError,
                     "hotpath: the in-C normal draw disagrees with numpy %S's "
                     "random_standard_normal at %s %lld",
                     version, what, which);
        Py_DECREF(version);
    }
    return -1;
}

/* Derive zig_wi and zig_ki from numpy's random_standard_normal, then
 * check the fast path against it (GIL held, once, from module init).
 * wi[i] is numpy's draw for rabs 1 in layer i; ki[i] is the smallest
 * rabs that leaves the fast path in layer i, found by bisection (2^52
 * when none does).  The check covers each layer's edge, rabs ki - 1
 * and ki with either sign, then ZIG_CHECK_DRAWS draws from two equal
 * splitmix64 streams, one through numpy's function and one through
 * standard_normal: every draw must agree bit for bit and leave the two
 * streams equal.  Raises ImportError naming numpy's version when it
 * does not. */
static int
derive_ziggurat(void)
{
    int slow;
    for (int i = 0; i < 256; i++) {
        zig_wi[i] = probe_normal((UINT64_C(1) << 9) | (uint64_t)i, &slow);
        uint64_t lo = 0, hi = UINT64_C(1) << ZIG_RABS_BITS;
        while (lo < hi) {
            const uint64_t mid = lo + (hi - lo) / 2;
            probe_normal((mid << 9) | (uint64_t)i, &slow);
            if (slow)
                hi = mid;
            else
                lo = mid + 1;
        }
        zig_ki[i] = lo;
        for (uint64_t sign = 0; sign < 2; sign++) {
            const uint64_t word = (lo << 9) | (sign << 8) | (uint64_t)i;
            if ((lo > 0 && !agrees_on(word - (UINT64_C(1) << 9)))
                || (lo < (UINT64_C(1) << ZIG_RABS_BITS) && !agrees_on(word)))
                return self_check_failed("the edge of layer", i);
        }
    }
    uint64_t numpy_state = 2002, fast_state = 2002;
    bitgen_t numpy_bg = {&numpy_state, splitmix_uint64, splitmix_uint32,
                         splitmix_double, splitmix_uint64};
    bitgen_t fast_bg = {&fast_state, splitmix_uint64, splitmix_uint32,
                        splitmix_double, splitmix_uint64};
    for (int k = 0; k < ZIG_CHECK_DRAWS; k++) {
        const double want = random_standard_normal(&numpy_bg);
        const double got = standard_normal(&fast_bg);
        if (memcmp(&want, &got, sizeof want) != 0 || numpy_state != fast_state)
            return self_check_failed("draw", k);
    }
    return 0;
}

/* ---------------------------------------------------- GIL bridge shim */

/* The compute stage runs with the GIL released; this shim is its only
 * Python crossing.  It re-acquires the GIL just for the callback and
 * releases it again before returning, so other threads' compute stages
 * keep running while this one calls back.  On failure the Python
 * exception is left pending in this thread's state and -1 is returned;
 * the caller must break out of the loop and touch no Python API until
 * the compute stage ends with the GIL re-acquired. */

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

/* The idle-scan memo of one issue domain.  84 % of the loop's edges
 * are idle, and most idle issue-queue scans repeat the previous scan's
 * answer, so when a domain's scan issues nothing it records what held
 * each examined entry back:
 *
 *   retry — the smallest `retries` value that made an entry sleep,
 *           counting values the scan itself just wrote;
 *   ts    — the dispatch time of the entry the scan broke on (+inf
 *           when it did not break);
 *   cyc   — the smallest same-domain fin_cycle that blocked an operand;
 *   seen  — the latest fin_ns of a cross-domain operand the scan found
 *           already visible (-inf when none);
 *   epoch — the loop's epoch counter, bumped by every dispatch into a
 *           queue and every issue, the only events that change a queue
 *           or a producer's fin_* entry (an operand still waiting on an
 *           unissued producer is held by this alone).
 *
 * While the epoch is unchanged, `retry > t`, `t - ts < cross_thresh`,
 * `cyc > cycle` and `!(seen + cross_thresh > t + EPS_NS)` — the scan's
 * own comparisons, re-evaluated exactly — the same scan would issue
 * nothing and write nothing, so compute_run skips it and does only the
 * idle bookkeeping.  Entries before the break entry passed the
 * dispatch-crossing test at an earlier edge and still pass it at a
 * later one; sleeping and cycle-blocked entries stay so; a visible
 * operand stays visible.
 *
 * The crossing threshold in force when the memo was recorded is not
 * compared (it moves only with the domain's period in the synchronous
 * baseline).  A smaller threshold can only unblock the break entry,
 * and that is re-checked exactly.  A larger one can break the scan
 * earlier, which issues and writes nothing, but it can also turn a
 * visible cross-domain operand into a blocking one, and blocking one
 * writes `retries`: that is what `seen` re-checks.  Every other
 * blocked entry is held by its `retries`, a cycle or the epoch.
 *
 * An idle scan starts with every functional unit free and
 * FunctionalUnitPool rejects zero simple units, so an entry whose
 * operands are ready always issues; the one exception, a complex op in
 * a domain without complex units, is rejected before the run
 * (MCDCore.native_marshal). */
typedef struct {
    int64_t epoch;
    double retry, ts, seen;
    int64_t cyc;
} IdleMemo;

/* The producer of a source operand at dependency distance src of the
 * instruction dispatched as sequence number seq, as MCDCore resolves it
 * at dispatch: seq - src when 0 < src < seq, else 0 (no operand).  The
 * issue scan recomputes it from the column at each test: storing two
 * producers beside every queue entry instead cost ~4 % of the compute
 * stage on dispatch-bound traces. */
static ALWAYS_INLINE int64_t
producer(int64_t src, int64_t seq)
{
    return src > 0 && src < seq ? seq - src : 0;
}

/* The issue scan's test for one source operand, produced by sequence
 * number p (0: no operand), of an entry of domain d at edge t, cycle
 * cyc.  A same-domain result is usable from its finish cycle on, a
 * cross-domain one cross_thresh after its finish time; an entry blocked
 * on the latter sleeps until then (*retry).  Folds the outcome into the
 * scan's memo.  Returns 1 when the operand is ready. */
static ALWAYS_INLINE int
operand_ready(int64_t p, int d, double t, int64_t cyc, double cross_thresh,
              const double *fin_ns, const int64_t *fin_cycle,
              const int32_t *fin_domain, double *retry, IdleMemo *m)
{
    if (!p)
        return 1;
    const int64_t slot = p & RING_MASK;
    const int fd = fin_domain[slot];
    if (fd < 0)
        return 0;
    if (fd == d) {
        if (fin_cycle[slot] > cyc) {
            if (fin_cycle[slot] < m->cyc)
                m->cyc = fin_cycle[slot];
            return 0;
        }
        return 1;
    }
    const double nb = fin_ns[slot] + cross_thresh;
    if (nb > t + EPS_NS) {
        *retry = nb;
        if (nb < m->retry)
            m->retry = nb;
        return 0;
    }
    if (fin_ns[slot] > m->seen)
        m->seen = fin_ns[slot];
    return 1;
}

/* All state one simulation needs across the three stages.  A RunState
 * is filled by marshal_run (GIL held), consumed by compute_run (GIL
 * released) and summarised by result_dict (GIL held); free_run drops
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
    /* native controller: the mode, then Attack/Decay's registers */
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
    /* the off-line profiler's log (off_log_rows rows of LOG_FIELDS) and
     * the schedule replay's rows of four MHz and domain mask */
    double *off_log;
    int64_t off_log_rows;
    const double *off_sched;
    int64_t off_sched_rows;
    const int64_t *off_mask;
    /* trace columns, ISA tables and state buffers (views owned by pool) */
    Trace tr;
    const int64_t *dest_tab, *domain_tab;
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
    /* cache/predictor/BTB state (views owned by pool) */
    Uarch u;
    /* jitter streams (MCD mode) and their sample buffers, each holding
     * max(leftover, block) doubles, and the ROB (per-run PyMem
     * allocations) */
    JitterStream jit[4];
    double *jbuf[4];
    Py_ssize_t jlen[4];
    int64_t *rob_seq;
    /* the python callback (borrowed from the argument dict, which the
     * caller keeps alive for the duration of the call) */
    PyObject *rollover;
    /* compute outputs */
    int64_t int_free, fp_free;
    int64_t retired, memory_accesses, dispatch_stall_cycles, intervals;
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
    PyMem_Free(rs->rob_seq);
    for (int d = 0; d < 4; d++)
        PyMem_Free(rs->jbuf[d]);
    memset(rs, 0, sizeof(*rs));
}

/* The jitter streams and their buffers (GIL held).  jbufs lists each
 * clock's leftover samples (GaussianJitter._buffer, consumed from the
 * tail, exactly like list.pop).  In MCD mode, jitter lists one
 * (capsule, sigma, clip, block) tuple per domain: the capsule of its
 * GaussianJitter's numpy bit generator and _draw's parameters; sync
 * runs draw nothing and pass None.  Each buffer holds max(leftover,
 * block) doubles, so the compute stage draws into it in place. */
static int
marshal_jitter(PyObject *a, int mcd_mode, RunState *rs)
{
    PyObject *jlists = PyDict_GetItemString(a, "jbufs");
    PyObject *streams = PyDict_GetItemString(a, "jitter");
    if (!jlists || !streams) {
        PyErr_SetString(PyExc_KeyError, "hotpath: missing object arg");
        return -1;
    }
    if (!PyList_Check(jlists) || PyList_GET_SIZE(jlists) != 4) {
        PyErr_SetString(PyExc_TypeError, "hotpath: jbufs must be a list of 4 lists");
        return -1;
    }
    if (mcd_mode && (!PyList_Check(streams) || PyList_GET_SIZE(streams) != 4)) {
        PyErr_SetString(PyExc_TypeError,
                        "hotpath: an MCD run needs a list of 4 jitter streams");
        return -1;
    }
    for (int d = 0; d < 4; d++) {
        PyObject *lst = PyList_GET_ITEM(jlists, d);
        if (!PyList_Check(lst)) {
            PyErr_SetString(PyExc_TypeError, "hotpath: jbufs must be a list of 4 lists");
            return -1;
        }
        const Py_ssize_t k = PyList_GET_SIZE(lst);
        Py_ssize_t size = k;
        if (mcd_mode) {
            JitterStream *js = &rs->jit[d];
            PyObject *entry = PyList_GET_ITEM(streams, d);
            if (!PyTuple_Check(entry) || PyTuple_GET_SIZE(entry) != 4) {
                PyErr_Format(PyExc_TypeError,
                             "hotpath: jitter[%d] must be a (capsule, sigma, "
                             "clip, block) tuple", d);
                return -1;
            }
            PyObject *capsule = PyTuple_GET_ITEM(entry, 0);
            if (!PyCapsule_CheckExact(capsule)) {
                PyErr_Format(PyExc_TypeError,
                             "hotpath: jitter[%d] holds no bit-generator capsule", d);
                return -1;
            }
            /* Raises ValueError for a capsule of another name. */
            if ((js->bg = PyCapsule_GetPointer(capsule, "BitGenerator")) == NULL)
                return -1;
            js->sigma = PyFloat_AsDouble(PyTuple_GET_ITEM(entry, 1));
            if (js->sigma == -1.0 && PyErr_Occurred())
                return -1;
            js->clip = PyFloat_AsDouble(PyTuple_GET_ITEM(entry, 2));
            if (js->clip == -1.0 && PyErr_Occurred())
                return -1;
            js->block = PyLong_AsSsize_t(PyTuple_GET_ITEM(entry, 3));
            if (js->block == -1 && PyErr_Occurred())
                return -1;
            if (!(isfinite(js->sigma) && js->sigma >= 0.0)
                || !(isfinite(js->clip) && js->clip >= 0.0)) {
                PyErr_Format(PyExc_ValueError,
                             "hotpath: jitter[%d] needs a finite, non-negative "
                             "sigma and clip", d);
                return -1;
            }
            if (js->block < 1) {
                PyErr_Format(PyExc_ValueError,
                             "hotpath: jitter[%d] block must be positive", d);
                return -1;
            }
            if (size < js->block)
                size = js->block;
        }
        rs->jbuf[d] = PyMem_Malloc((size ? size : 1) * sizeof(double));
        if (rs->jbuf[d] == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        for (Py_ssize_t j = 0; j < k; j++) {
            rs->jbuf[d][j] = PyFloat_AsDouble(PyList_GET_ITEM(lst, j));
            if (PyErr_Occurred())
                return -1;
        }
        rs->jlen[d] = k;
    }
    return 0;
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
    if (interval_len < 1) {
        PyErr_SetString(PyExc_ValueError, "hotpath: interval_len must be positive");
        goto fail;
    }

    /* --- native controller -------------------------------------------- */
    long long native_ctrl_ll = 0;
    if (get_long(a, "native_ctrl", &native_ctrl_ll))
        goto fail;
    if (native_ctrl_ll < CTRL_NONE || native_ctrl_ll > CTRL_REPLAY) {
        PyErr_Format(PyExc_ValueError, "hotpath: unknown native_ctrl mode %lld",
                     native_ctrl_ll);
        goto fail;
    }
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
    double *off_log = NULL;
    int64_t off_log_rows = 0, off_sched_rows = 0;
    const double *off_sched = NULL;
    const int64_t *off_mask = NULL;

    /* --- trace columns and the ISA tables ----------------------------- */
    if (marshal_trace(a, pool, total, &rs->tr) < 0)
        goto fail;
    const int64_t *dest_tab, *domain_tab;
    if ((dest_tab = get_buffer(a, "dest_table", pool, 0, NUM_CLASSES, NULL)) == NULL
        || (domain_tab = get_buffer(a, "domain_table", pool, 0, NUM_CLASSES, NULL))
               == NULL)
        goto fail;
    for (int k = 0; k < NUM_CLASSES; k++) {
        if (dest_tab[k] < -1 || dest_tab[k] > 1 || domain_tab[k] < 1
            || domain_tab[k] > 3) {
            PyErr_Format(PyExc_ValueError, "hotpath: bad ISA table entry for class %d",
                         k);
            goto fail;
        }
    }

    const int64_t *lat_cycles = get_buffer(a, "lat_cycles", pool, 0, NUM_CLASSES, NULL);
    const int64_t *complex_op = get_buffer(a, "complex_op", pool, 0, NUM_CLASSES, NULL);
    const int64_t *simple_w = get_buffer(a, "simple_w", pool, 0, 4, NULL);
    const int64_t *complex_w = get_buffer(a, "complex_w", pool, 0, 4, NULL);
    const int64_t *q_cap = get_buffer(a, "q_cap", pool, 0, 4, NULL);
    const double *clock_e = get_buffer(a, "clock_e", pool, 0, 4, NULL);
    const double *idle_e = get_buffer(a, "idle_e", pool, 0, 4, NULL);
    const double *e_issue_a = get_buffer(a, "e_issue", pool, 0, 4, NULL);
    const double *e_simple_a = get_buffer(a, "e_simple", pool, 0, 4, NULL);
    const double *e_complex_a = get_buffer(a, "e_complex", pool, 0, 4, NULL);
    double *reg_cur = get_buffer(a, "reg_cur", pool, 1, 4, NULL);
    double *reg_tgt = get_buffer(a, "reg_tgt", pool, 1, 4, NULL);
    double *reg_last = get_buffer(a, "reg_last", pool, 1, 4, NULL);
    const double *reg_slew = get_buffer(a, "reg_slew", pool, 0, 4, NULL);
    double *reg_slew_acc = get_buffer(a, "reg_slew_acc", pool, 1, 4, NULL);
    double *edge_ns = get_buffer(a, "edge", pool, 1, 4, NULL);
    int64_t *cycle_idx = get_buffer(a, "cyc", pool, 1, 4, NULL);
    double *acc_clock = get_buffer(a, "acc_clock", pool, 1, 4, NULL);
    double *acc_struct = get_buffer(a, "acc_struct", pool, 1, 4, NULL);
    int64_t *n_busy = get_buffer(a, "n_busy", pool, 1, 4, NULL);
    int64_t *n_idle = get_buffer(a, "n_idle", pool, 1, 4, NULL);
    int64_t *q_occ = get_buffer(a, "q_occ", pool, 1, 4, NULL);
    int64_t *q_writes = get_buffer(a, "q_writes", pool, 1, 4, NULL);
    int64_t *cache_stats = get_buffer(a, "cache_stats", pool, 1, 6, NULL);
    int64_t *bp_stats = get_buffer(a, "bp_stats", pool, 1, 3, NULL);
    double *cur_freq = get_buffer(a, "cur_freq", pool, 1, 4, NULL);
    if (!lat_cycles || !complex_op || !simple_w || !complex_w || !q_cap
        || !clock_e || !idle_e || !e_issue_a || !e_simple_a || !e_complex_a
        || !reg_cur || !reg_tgt || !reg_last || !reg_slew || !reg_slew_acc
        || !edge_ns || !cycle_idx || !acc_clock || !acc_struct || !n_busy
        || !n_idle || !q_occ || !q_writes || !cache_stats || !bp_stats
        || !cur_freq)
        goto fail;

    if (native_ctrl == CTRL_ATTACK_DECAY) {
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
        ad_ctrl = get_buffer(a, "ad_ctrl", pool, 0, 4, NULL);
        ad_freq = get_buffer(a, "ad_freq", pool, 1, 4, NULL);
        ad_prev_util = get_buffer(a, "ad_prev_util", pool, 1, 4, NULL);
        ad_upper = get_buffer(a, "ad_upper", pool, 1, 4, NULL);
        ad_lower = get_buffer(a, "ad_lower", pool, 1, 4, NULL);
        ad_attacks_up = get_buffer(a, "ad_attacks_up", pool, 1, 4, NULL);
        ad_attacks_down = get_buffer(a, "ad_attacks_down", pool, 1, 4, NULL);
        ad_decays = get_buffer(a, "ad_decays", pool, 1, 4, NULL);
        ad_holds = get_buffer(a, "ad_holds", pool, 1, 4, NULL);
        ad_ipc = get_buffer(a, "ad_ipc", pool, 1, 2, NULL);
        Py_ssize_t table_n = 0;
        freq_table = get_buffer(a, "freq_table", pool, 0, 1, &table_n);
        reg_requests = get_buffer(a, "reg_requests", pool, 1, 4, NULL);
        reg_dirchg = get_buffer(a, "reg_dirchg", pool, 1, 4, NULL);
        if (!ad_ctrl || !ad_freq || !ad_prev_util || !ad_upper || !ad_lower
            || !ad_attacks_up || !ad_attacks_down || !ad_decays || !ad_holds
            || !ad_ipc || !freq_table || !reg_requests || !reg_dirchg)
            goto fail;
        if (freq_points < 1 || table_n < freq_points) {
            PyErr_SetString(PyExc_ValueError, "hotpath: bad frequency table");
            goto fail;
        }
    } else if (native_ctrl == CTRL_PROFILE) {
        /* A run of total instructions rolls over at most
         * total / interval_len times; one row more is to spare. */
        off_log_rows = total / interval_len + 1;
        if ((off_log = get_doubles(a, "off_log", pool, 1, off_log_rows * LOG_FIELDS,
                                   NULL)) == NULL)
            goto fail;
    } else if (native_ctrl == CTRL_REPLAY) {
        Py_ssize_t sched_n = 0;
        if ((off_sched = get_doubles(a, "off_sched", pool, 0, 4, &sched_n)) == NULL
            || (off_mask = get_buffer(a, "off_mask", pool, 0, 4, NULL)) == NULL)
            goto fail;
        if (sched_n % 4) {
            PyErr_Format(PyExc_ValueError,
                         "hotpath: off_sched holds %zd values, want rows of 4",
                         sched_n);
            goto fail;
        }
        off_sched_rows = sched_n / 4;
        for (int i = 0; i < 4; i++) {
            if (off_mask[i] != 0 && off_mask[i] != 1) {
                PyErr_SetString(PyExc_ValueError, "hotpath: off_mask must hold 0 or 1");
                goto fail;
            }
            for (int64_t r = 0; off_mask[i] && r < off_sched_rows; r++) {
                const double mhz = off_sched[4 * r + i];
                if (!(isfinite(mhz) && mhz > 0.0)) {
                    PyErr_Format(PyExc_ValueError,
                                 "hotpath: off_sched row %lld sets domain %d to a "
                                 "frequency that is not finite and positive",
                                 (long long)r, i);
                    goto fail;
                }
            }
        }
    }

    /* --- python-object state ------------------------------------------ */
    PyObject *rollover = PyDict_GetItemString(a, "rollover");
    if (!rollover) {
        PyErr_SetString(PyExc_KeyError, "hotpath: missing object arg");
        goto fail;
    }
    if (marshal_uarch(a, pool, &rs->u) < 0 || marshal_jitter(a, mcd_mode, rs) < 0)
        goto fail;

    /* Validation that used to sit in the run-local setup: raise while
     * errors still can be raised cheaply, before any compute starts. */
    if (rob_cap < 1) {
        PyErr_SetString(PyExc_ValueError, "hotpath: rob_cap must be positive");
        goto fail;
    }
    rs->rob_seq = PyMem_Malloc(rob_cap * sizeof(int64_t));
    if (rs->rob_seq == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    for (int d = 1; d < 4; d++) {
        if (q_cap[d] < 0 || q_cap[d] > QMAX) {
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
    rs->off_log = off_log;
    rs->off_log_rows = off_log_rows;
    rs->off_sched = off_sched;
    rs->off_sched_rows = off_sched_rows;
    rs->off_mask = off_mask;
    rs->dest_tab = dest_tab;
    rs->domain_tab = domain_tab;
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
    rs->rollover = rollover;
    return 0;

fail:
    return -1;
}

/* Stage 2: the event loop.  Called with the GIL RELEASED (*tstate_p
 * holds the saved thread state); the rollover shim re-acquires it per
 * crossing and the updated state flows back through tstate_p.
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
    double *off_log = rs->off_log;
    const int64_t off_log_rows = rs->off_log_rows;
    const double *off_sched = rs->off_sched;
    const int64_t off_sched_rows = rs->off_sched_rows;
    const int64_t *off_mask = rs->off_mask;
    const Trace tr = rs->tr;
    const int64_t *dest_tab = rs->dest_tab, *domain_tab = rs->domain_tab;
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
    const JitterStream *jit = rs->jit;
    double **jbuf = rs->jbuf;
    Py_ssize_t *jlen = rs->jlen;
    int64_t *rob_seq = rs->rob_seq;
    PyObject *rollover = rs->rollover;
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
    int64_t last_fetch_line = -1; /* one I-cache lookup per new line */

    int64_t epoch = 0; /* bumped by every dispatch and every issue */
    IdleMemo memo[4];
    for (int d = 0; d < 4; d++)
        memo[d].epoch = -1; /* nothing recorded yet */

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
                int64_t dst = dest_tab[tr.kinds[seq - 1]];
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
                const int64_t k = interval_index - 1;
                /* Whether a controller ran and may have moved a
                 * regulator. */
                int controlled = 1;
                if (call_rollover) {
                    if (rollover_callback(
                            rollover, (long long)k, (long long)retired, t,
                            duration, (long long)occ1, (long long)occ2,
                            (long long)occ3, busy_in_interval,
                            (long long)memory_accesses, &tstate) < 0) {
                        py_error = 1;
                        break;
                    }
                } else if (native_ctrl == CTRL_PROFILE) {
                    /* OfflineProfiler run inline: log the raw
                     * observables; the fold derives the profile from
                     * them as the callback derives its snapshot
                     * (repro.uarch.native.interval_observables).
                     * marshal_run sized the log for every interval. */
                    if (k < off_log_rows) {
                        double *row = off_log + k * LOG_FIELDS;
                        row[0] = duration;
                        row[1] = (double)occ1;
                        row[2] = (double)occ2;
                        row[3] = (double)occ3;
                        for (int i = 0; i < 4; i++) {
                            row[4 + i] = (double)busy_in_interval[i];
                            row[8 + i] = cur_freq[i];
                        }
                    }
                    controlled = 0;
                } else if (native_ctrl == CTRL_REPLAY) {
                    /* OfflineController run inline: snap the scheduled
                     * domains to row min(k, rows - 1), frequency and
                     * target both, as snap_to does with the MHz the
                     * marshal pre-quantised. */
                    const double *row =
                        off_sched + 4 * (k < off_sched_rows ? k : off_sched_rows - 1);
                    for (int i = 0; i < 4; i++) {
                        if (off_mask[i])
                            reg_cur[i] = reg_tgt[i] = row[i];
                    }
                } else if (native_ctrl == CTRL_ATTACK_DECAY) {
                    /* Attack/Decay (paper Listing 1) run inline: the
                     * same arithmetic, in the same order, as
                     * AttackDecayController.on_interval feeding
                     * VoltageFrequencyRegulator.request — with zero
                     * Python crossings. */
                    double raw_ipc = (double)interval_len
                                     / (duration * cur_freq[0] * 1e-3);
                    double ipc;
                    if (k == 0 || ad_alpha >= 1.0)
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
                } else {
                    controlled = 0;
                }
                if (controlled) {
                    /* Pick up controller-applied regulator changes
                     * (Attack/Decay's requests never move reg_cur, so
                     * for it only `slewing` changes).  NOTE: vscale
                     * deliberately stays the value bound at the top of
                     * this cycle, like the reference interpreter. */
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
                    const int64_t line = (int64_t)tr.pcs[fi] >> shift;
                    if (line != last_fetch_line) {
                        last_fetch_line = line;
                        access_energy += e_l1i;
                        int level = hierarchy_access(&l1i, &l2, line);
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
                    const int kind = tr.kinds[fi];
                    int64_t qd = domain_tab[kind];
                    if (q_len[qd] >= q_cap[qd]) {
                        stalled = 1;
                        break;
                    }
                    int64_t dst = dest_tab[kind];
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
                    int mispredicted = 0;
                    if (kind == kind_branch) {
                        access_energy += e_bpred;
                        int outcome = branch_access(&bp, tr.pcs[fi], tr.taken[fi],
                                                    tr.targets[fi]);
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
                    epoch++;
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
                if (jlen[0] == 0) {
                    draw_jitter(&jit[0], jbuf[0]);
                    jlen[0] = jit[0].block;
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
            /* A held memo (see IdleMemo) means this scan would issue and
             * write nothing: skip it by starting past the last entry. */
            const IdleMemo *held = &memo[d];
            const int skip = held->epoch == epoch && held->retry > t
                             && t - held->ts < cross_thresh && held->cyc > cyc
                             && !(held->seen + cross_thresh > t + EPS_NS);
            IdleMemo scan = {epoch, INFINITY, INFINITY, -INFINITY, INT64_MAX};
            for (int ei = skip ? qn : 0; ei < qn; ei++) {
                if (retries[ei] > t) {
                    if (retries[ei] < scan.retry)
                        scan.retry = retries[ei];
                    continue;
                }
                if (t - ts[ei] < cross_thresh) {
                    scan.ts = ts[ei];
                    break;
                }
                int64_t seq = seqs[ei];
                if (!operand_ready(producer(tr.src1[seq - 1], seq), d, t, cyc,
                                   cross_thresh, fin_ns, fin_cycle, fin_domain,
                                   &retries[ei], &scan)
                    || !operand_ready(producer(tr.src2[seq - 1], seq), d, t, cyc,
                                      cross_thresh, fin_ns, fin_cycle, fin_domain,
                                      &retries[ei], &scan))
                    continue;
                const int kind = tr.kinds[seq - 1];
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
                        hierarchy_access(&l1d, &l2, tr.addrs[seq - 1] >> shift);
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
                                                  tr.addrs[seq - 1] >> shift));
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
                epoch++;
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
                if (!skip)
                    memo[d] = scan;
                n_idle[d]++;
                acc_clock[d] += idle_e[d] * vscale;
            }
            /* inlined clock advance */
            double step;
            if (mcd_mode) {
                if (jlen[d] == 0) {
                    draw_jitter(&jit[d], jbuf[d]);
                    jlen[d] = jit[d].block;
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
    rs->intervals = interval_index;
    rs->int_free = int_free;
    rs->fp_free = fp_free;
    rs->error = error;
    *tstate_p = tstate;
    return py_error ? -1 : 0;
}

/* Stage 3: the per-run result dict (GIL held).  The cache, predictor
 * and BTB state was updated in place; nothing is written back. */
static PyObject *
result_dict(const RunState *rs)
{
    return Py_BuildValue(
        "{s:L,s:d,s:L,s:L,s:L,s:L,s:L,s:s}", "retired", (long long)rs->retired,
        "wall", rs->wall, "memory_accesses", (long long)rs->memory_accesses,
        "dispatch_stall_cycles", (long long)rs->dispatch_stall_cycles,
        "intervals", (long long)rs->intervals, "int_free", (long long)rs->int_free,
        "fp_free", (long long)rs->fp_free, "error", rs->error);
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
            result = result_dict(rs);
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
     * crossings until every run has computed are the per-run rollover
     * bridge shim's. */
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

    /* Stage 3: per-run result dicts. */
    if (!failed) {
        out = PyList_New(n);
        if (out != NULL) {
            for (Py_ssize_t i = 0; i < n; i++) {
                PyObject *res = result_dict(&runs[i]);
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
 * only — no timing, no statistics — with the GIL released, updating
 * that state in place.  Returns the replayed count. */
static PyObject *
warm_up(PyObject *self, PyObject *args)
{
    PyObject *a; /* argument dict */
    if (!PyArg_ParseTuple(args, "O!", &PyDict_Type, &a))
        return NULL;

    ViewPool pool;
    pool.count = 0;
    Uarch u;
    Trace tr;
    PyObject *result = NULL;
    long long n, limit, kind_load, kind_store, kind_branch;
    if (get_long(a, "n", &n) || get_long(a, "limit", &limit)
        || get_long(a, "kind_load", &kind_load)
        || get_long(a, "kind_store", &kind_store)
        || get_long(a, "kind_branch", &kind_branch)
        || marshal_trace(a, &pool, n, &tr) < 0 || marshal_uarch(a, &pool, &u) < 0)
        goto done;

    const int64_t end = limit < 0 ? 0 : (limit < n ? limit : n);
    Py_BEGIN_ALLOW_THREADS
    const int shift = u.shift;
    const TagSets l1i = u.l1i, l1d = u.l1d, l2 = u.l2;
    const Predictor bp = u.bp;
    int64_t last_line = -1;
    for (int64_t i = 0; i < end; i++) {
        const int64_t line = (int64_t)tr.pcs[i] >> shift;
        if (line != last_line) {
            last_line = line;
            hierarchy_access(&l1i, &l2, line);
        }
        const int kind = tr.kinds[i];
        if (kind == kind_branch)
            branch_access(&bp, tr.pcs[i], tr.taken[i], tr.targets[i]);
        else if (kind == kind_load || kind == kind_store)
            hierarchy_access(&l1d, &l2, tr.addrs[i] >> shift);
    }
    Py_END_ALLOW_THREADS
    result = PyLong_FromLongLong(end);
done:
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
    if (derive_ziggurat() < 0)
        return NULL;
    PyObject *module = PyModule_Create(&hotpath_module);
    if (module == NULL)
        return NULL;
    if (PyModule_AddIntConstant(module, "NUM_CLASSES", NUM_CLASSES) < 0
        || PyModule_AddIntConstant(module, "MAX_DEP_DISTANCE", MAX_DEP_DISTANCE) < 0
        || PyModule_AddIntConstant(module, "CTRL_ATTACK_DECAY", CTRL_ATTACK_DECAY) < 0
        || PyModule_AddIntConstant(module, "CTRL_PROFILE", CTRL_PROFILE) < 0
        || PyModule_AddIntConstant(module, "CTRL_REPLAY", CTRL_REPLAY) < 0
        || PyModule_AddIntConstant(module, "LOG_FIELDS", LOG_FIELDS) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
