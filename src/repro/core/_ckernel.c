/* Compiled delta-kernel for the discrepancy search (engine="compiled").
 *
 * A hand-written CPython extension that replicates, operation for
 * operation, the fast engine's delta kernel:
 *
 *   - repro/core/search.py      _FastSearchRun._dfs_lds2/_dfs_dds2,
 *                               _chain2/_chain2_slow, _leaf2,
 *                               _prune_child2, _chain_allowance,
 *                               _check_budget
 *   - repro/core/profile.py     SearchProfile.place/unplace (and the
 *                               place_run_fold fusion: the association-
 *                               order contract makes one fused scalar
 *                               place+fold loop bit-identical to both
 *                               Python chain paths)
 *   - repro/core/deltascore.py  the per-term arithmetic
 *                               wait = start - submit
 *                               e    = wait - omega   (added iff > 0)
 *                               s    = (wait + den) / den
 *   - repro/core/parallel_search.py  _ShardRun._run_shard_delta (the
 *                               shard-mode entry: seeded incumbent, no
 *                               first-leaf exemption, path replay)
 *
 * The pure-python engines remain the source of truth: this file holds
 * no semantics of its own, only a transcription.  Every float operation
 * below is a C double operation in the exact order the Python engines
 * perform it (CPython floats ARE C doubles), so results are
 * bit-identical — a contract enforced by the oracle fingerprints and
 * the Hypothesis engine-conformance fuzzer in tests/.
 *
 * Deliberately unsupported (the Python wrapper falls back to the fast
 * engine): wall-clock deadlines (poll cadence), custom evaluators,
 * the runtime sanitizer (needs per-mutation Python checks), and the
 * shard blackboard (poll/publish callbacks).
 *
 * One structural liberty, invisible in results: the profile is one
 * packed array of {t, f} segments, and a heuristic-completion chain
 * (_chain2, _chain2_slow) runs on a scratch copy of it.  Where _chain2
 * brackets its batch with checkpoint()/rollback(), this kernel copies
 * the live segments into a buffer allocated once per search, places the
 * chain there without undo frames, and drops the copy after the leaf
 * (or a prune or budget stop) by pointing back at the live array.  The
 * chain's last placement only computes its start time, since nothing
 * reads the profile after it.  The DFS levels above a chain still place
 * and unplace the live array with undo frames.  Every path restores the
 * profile exactly, and the discarded states are never observed.
 * place()'s skip-ahead also omits place_run's suffix-min frontier, a
 * pure scan shortcut over segments the plain walk rejects anyway.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdlib.h>
#include <string.h>

#define CK_OK 0
#define CK_STOP 1 /* _StopSearch */
#define CK_ERR (-1)

/* One availability segment: f nodes free from time t up to the next
 * segment's t (the last segment runs on forever). */
typedef struct {
    double t;
    long f;
} Seg;

typedef struct {
    Py_ssize_t si;
    Py_ssize_t ej;
    long nodes;
    int created_start;
    int created_end;
} UndoFrame;

typedef struct {
    long long nodes_visited;
    double exc;
    double slow;
    Py_ssize_t d;
} AnyRec;

typedef struct {
    /* profile: packed segments, length m.  seg is the array placements
     * work on: live in the DFS, scratch inside a heuristic chain. */
    Seg *seg;
    Seg *live;
    Seg *scratch;
    Py_ssize_t m;
    long capacity;
    double eps;
    UndoFrame *undo;
    Py_ssize_t undo_n;

    /* job arrays (dense index) + linked remaining set */
    Py_ssize_t n;
    double *submit;
    double *rt;
    double *denom;
    long *jnodes;
    Py_ssize_t *nxt;
    Py_ssize_t *prv;
    Py_ssize_t head;

    /* path / best */
    Py_ssize_t *path_i;
    double *path_s;
    Py_ssize_t *best_i;
    double *best_s;
    Py_ssize_t best_d;
    double b_exc;
    double b_slow;
    int best_valid;
    int has_order;

    /* search parameters */
    double now;
    double omega;
    long long node_limit; /* -1 == None */
    int prune;
    int lds;
    int first_leaf_exempt;
    int record_anytime;

    /* counters */
    long long nodes_visited;
    long long leaves_evaluated;
    long long iterations_started;
    int limit_hit;
    int improved_after_first;

    /* anytime records */
    AnyRec *any;
    Py_ssize_t any_n;
    Py_ssize_t any_cap;
    int oom;
} Search;

/* ------------------------------------------------------------------ */
/* SearchProfile.place, split in two: the earliest-fit scan (ck_fit)   */
/* and the breakpoint commit (ck_commit).  Straight transcription of   */
/* profile.py (earliest == s->now on every search call site).          */
/* ------------------------------------------------------------------ */

/* The earliest start of a nodes x duration job; *at receives the
 * segment it starts in (seg[*at].t <= start < seg[*at + 1].t) and *past
 * the first segment after it that starts at or beyond end - eps. */
static inline double
ck_fit(const Search *s, long nodes, double duration, Py_ssize_t *at,
       Py_ssize_t *past)
{
    const Seg *seg = s->seg;
    const Py_ssize_t m = s->m;
    const double eps = s->eps;

    double cand = s->now > seg[0].t ? s->now : seg[0].t;
    Py_ssize_t i = 0;
    Py_ssize_t ni = 1;
    while (ni < m && seg[ni].t <= cand) {
        i = ni;
        ni++;
    }
    for (;;) {
        if (seg[i].f < nodes) {
            /* Skip ahead; the final segment always has capacity free. */
            i++;
            while (seg[i].f < nodes)
                i++;
            cand = seg[i].t;
        }
        double end_eps = (cand + duration) - eps;
        Py_ssize_t j = i + 1;
        Py_ssize_t blocked = 0;
        while (j < m && seg[j].t < end_eps) {
            if (seg[j].f < nodes) {
                blocked = j;
                break;
            }
            j++;
        }
        if (!blocked) {
            *past = j;
            break;
        }
        i = blocked;
        cand = seg[blocked].t;
    }
    *at = i;
    return cand;
}

/* Occupy nodes over [start, start + duration) for the start, *at and
 * *past ck_fit found, on exactly the segments ck_fit checked; *u
 * receives what ck_unplace needs to undo it. */
static inline void
ck_commit(Search *s, Py_ssize_t i, Py_ssize_t past, double start, long nodes,
          double duration, UndoFrame *u)
{
    Seg *seg = s->seg;
    Py_ssize_t m = s->m;
    const double eps = s->eps;
    const double end = start + duration;

    /* start breakpoint (seg[i].t <= start < seg[i+1].t by the scan) */
    Py_ssize_t si;
    int created_start;
    if (start - seg[i].t <= eps) {
        si = i;
        created_start = 0;
    }
    else {
        si = i + 1;
        memmove(seg + si + 1, seg + si, (size_t)(m - si) * sizeof(Seg));
        seg[si].t = start;
        seg[si].f = seg[i].f;
        created_start = 1;
        m++;
    }

    /* end breakpoint: the claim covers exactly the segments ck_fit
     * checked; the first one it left closes the claim if it starts by
     * end, else a breakpoint is inserted at end */
    const Py_ssize_t ej = past + created_start;
    int created_end;
    if (ej < m && seg[ej].t <= end) {
        created_end = 0;
    }
    else {
        memmove(seg + ej + 1, seg + ej, (size_t)(m - ej) * sizeof(Seg));
        seg[ej].t = end;
        seg[ej].f = seg[ej - 1].f;
        created_end = 1;
        m++;
    }

    for (Py_ssize_t k = si; k < ej; k++)
        seg[k].f -= nodes;
    s->m = m;

    u->si = si;
    u->ej = ej;
    u->nodes = nodes;
    u->created_start = created_start;
    u->created_end = created_end;
}

/* A DFS-level placement on the live profile, undone by ck_unplace. */
static double
ck_place(Search *s, long nodes, double duration)
{
    Py_ssize_t at, past;
    double start = ck_fit(s, nodes, duration, &at, &past);
    ck_commit(s, at, past, start, nodes, duration, &s->undo[s->undo_n++]);
    return start;
}

static void
ck_unplace(Search *s)
{
    UndoFrame *u = &s->undo[--s->undo_n];
    Seg *seg = s->seg;
    for (Py_ssize_t k = u->si; k < u->ej; k++)
        seg[k].f += u->nodes;
    /* Delete the end breakpoint first so the start position stays valid. */
    if (u->created_end) {
        memmove(seg + u->ej, seg + u->ej + 1,
                (size_t)(s->m - u->ej - 1) * sizeof(Seg));
        s->m--;
    }
    if (u->created_start) {
        memmove(seg + u->si, seg + u->si + 1,
                (size_t)(s->m - u->si - 1) * sizeof(Seg));
        s->m--;
    }
}

/* ------------------------------------------------------------------ */
/* Budget machinery (_check_budget / _chain_allowance)                 */
/* ------------------------------------------------------------------ */
static inline int
ck_check_budget(Search *s)
{
    if (s->first_leaf_exempt && s->leaves_evaluated == 0)
        return CK_OK; /* the heuristic schedule always completes */
    if (s->node_limit >= 0 && s->nodes_visited >= s->node_limit)
        return CK_STOP;
    return CK_OK;
}

static inline long long
ck_chain_allowance(Search *s, Py_ssize_t m)
{
    if (s->node_limit < 0)
        return m;
    if (s->first_leaf_exempt && s->leaves_evaluated == 0)
        return m;
    long long left = s->node_limit - s->nodes_visited;
    if (left >= (long long)m)
        return m;
    return left > 0 ? left : 0;
}

/* ------------------------------------------------------------------ */
/* Leaf evaluation and pruning (the float-pair compare of _leaf2)      */
/* ------------------------------------------------------------------ */
static int
ck_leaf2(Search *s, double exc, double slow, Py_ssize_t d)
{
    s->leaves_evaluated++;
    if (s->best_valid) {
        if (exc > s->b_exc || (exc == s->b_exc && slow >= s->b_slow))
            return CK_OK;
        s->improved_after_first = 1;
    }
    s->best_valid = 1;
    s->has_order = 1;
    s->b_exc = exc;
    s->b_slow = slow;
    s->best_d = d;
    memcpy(s->best_i, s->path_i, (size_t)d * sizeof(Py_ssize_t));
    memcpy(s->best_s, s->path_s, (size_t)d * sizeof(double));
    if (s->record_anytime) {
        if (s->any_n == s->any_cap) {
            Py_ssize_t cap = s->any_cap ? s->any_cap * 2 : 64;
            AnyRec *grown = realloc(s->any, (size_t)cap * sizeof(AnyRec));
            if (grown == NULL) {
                s->oom = 1;
                return CK_ERR;
            }
            s->any = grown;
            s->any_cap = cap;
        }
        AnyRec *rec = &s->any[s->any_n++];
        rec->nodes_visited = s->nodes_visited;
        rec->exc = exc;
        rec->slow = slow;
        rec->d = d;
    }
    return CK_OK;
}

static inline int
ck_prune_child2(Search *s, double exc, double slow, Py_ssize_t left)
{
    if (!s->best_valid)
        return 0;
    if (exc > s->b_exc)
        return 1;
    if (exc < s->b_exc)
        return 0;
    return slow + (double)left >= s->b_slow;
}

/* ------------------------------------------------------------------ */
/* Heuristic-completion chains (_chain2 / _chain2_slow)                */
/* ------------------------------------------------------------------ */

/* Start a chain of m placements on a scratch copy of the profile, so
 * its placements need no undo.  The copy is skipped when m < 2: the
 * chain's last placement is a probe that commits nothing.  Returns the
 * live length for ck_chain_leave. */
static inline Py_ssize_t
ck_chain_enter(Search *s, Py_ssize_t m)
{
    if (m > 1) {
        memcpy(s->scratch, s->live, (size_t)s->m * sizeof(Seg));
        s->seg = s->scratch;
    }
    return s->m;
}

/* Drop the chain's copy: the live profile was never touched. */
static inline void
ck_chain_leave(Search *s, Py_ssize_t live_m)
{
    s->seg = s->live;
    s->m = live_m;
}

static int
ck_chain2_slow(Search *s, Py_ssize_t m, double exc, double slow, Py_ssize_t d)
{
    Py_ssize_t i = s->head;
    Py_ssize_t p = d;
    const Py_ssize_t end = d + m;
    const Py_ssize_t live_m = ck_chain_enter(s, m);
    UndoFrame dropped;
    int rc = CK_OK;
    while (p < end) {
        if (ck_check_budget(s)) {
            rc = CK_STOP;
            goto leave;
        }
        i = s->nxt[i];
        s->nodes_visited++;
        long nodes = s->jnodes[i];
        double duration = s->rt[i];
        Py_ssize_t at, past;
        double start = ck_fit(s, nodes, duration, &at, &past);
        if (p + 1 < end)
            ck_commit(s, at, past, start, nodes, duration, &dropped);
        s->path_i[p] = i;
        s->path_s[p] = start;
        double wait = start - s->submit[i];
        double e = wait - s->omega;
        if (e > 0.0)
            exc += e;
        double den = s->denom[i];
        slow += (wait + den) / den;
        p++;
        if (s->prune && ck_prune_child2(s, exc, slow, end - p))
            goto leave; /* pruned mid-chain: plain return in Python */
    }
    rc = ck_leaf2(s, exc, slow, end);
leave:
    ck_chain_leave(s, live_m);
    return rc;
}

static int
ck_chain2(Search *s, Py_ssize_t m, double exc, double slow, Py_ssize_t d)
{
    if (m == 0)
        return ck_leaf2(s, exc, slow, d);
    if (s->prune)
        /* Pruning needs per-step bound checks. */
        return ck_chain2_slow(s, m, exc, slow, d);
    long long k = ck_chain_allowance(s, m);
    if (k == 0)
        return CK_STOP; /* budget gone before the first placement */
    if (k < (long long)m) {
        /* Truncated chain: placements would be rolled back unread, so
         * only the node accounting is observable.  Commit it and stop. */
        s->nodes_visited += k;
        return CK_STOP;
    }
    /* Full chain: walk the list (no unlink — a chain never branches),
     * place + fold fused in one scalar loop.  Bit-identical to both
     * Python paths by the association-order contract. */
    Py_ssize_t i = s->head;
    for (Py_ssize_t p = d; p < d + m; p++) {
        i = s->nxt[i];
        s->path_i[p] = i;
    }
    s->nodes_visited += m;
    const Py_ssize_t last = d + m - 1;
    const Py_ssize_t live_m = ck_chain_enter(s, m);
    UndoFrame dropped;
    for (Py_ssize_t p = d; p <= last; p++) {
        Py_ssize_t idx = s->path_i[p];
        long nodes = s->jnodes[idx];
        double duration = s->rt[idx];
        Py_ssize_t at, past;
        double start = ck_fit(s, nodes, duration, &at, &past);
        if (p < last)
            ck_commit(s, at, past, start, nodes, duration, &dropped);
        s->path_s[p] = start;
        double wait = start - s->submit[idx];
        double e = wait - s->omega;
        if (e > 0.0)
            exc += e;
        double den = s->denom[idx];
        slow += (wait + den) / den;
    }
    ck_chain_leave(s, live_m);
    return ck_leaf2(s, exc, slow, d + m);
}

/* ------------------------------------------------------------------ */
/* The DFS proper (_dfs_lds2 / _dfs_dds2)                              */
/* ------------------------------------------------------------------ */
static int
ck_dfs_lds2(Search *s, Py_ssize_t m, Py_ssize_t k_left, double exc,
            double slow, Py_ssize_t d)
{
    if (k_left == 0)
        /* No discrepancies left: only the heuristic completion remains. */
        return ck_chain2(s, m, exc, slow, d);
    if (m == 0)
        return CK_OK; /* budget k_left > 0 unspent: not a valid leaf */
    Py_ssize_t *nxt = s->nxt;
    Py_ssize_t *prv = s->prv;
    const Py_ssize_t cap = m > 2 ? m - 2 : 0;
    Py_ssize_t i = nxt[s->head];
    for (Py_ssize_t idx = 0; idx < m; idx++) {
        Py_ssize_t child_k;
        if (idx) {
            if (k_left < 1) /* a discrepancy costs 1 we don't have */
                break;
            child_k = k_left - 1;
        }
        else {
            child_k = k_left;
        }
        if (child_k <= cap) { /* enough levels left to spend child_k */
            if (ck_check_budget(s))
                return CK_STOP;
            Py_ssize_t pi = prv[i];
            Py_ssize_t ni = nxt[i];
            nxt[pi] = ni;
            prv[ni] = pi;
            s->nodes_visited++;
            double start = ck_place(s, s->jnodes[i], s->rt[i]);
            s->path_i[d] = i;
            s->path_s[d] = start;
            double wait = start - s->submit[i];
            double e = wait - s->omega;
            double nexc = e > 0.0 ? exc + e : exc;
            double den = s->denom[i];
            double nslow = slow + (wait + den) / den;
            int rc = CK_OK;
            if (!s->prune || !ck_prune_child2(s, nexc, nslow, m - 1))
                rc = ck_dfs_lds2(s, m - 1, child_k, nexc, nslow, d + 1);
            ck_unplace(s);
            nxt[pi] = i;
            prv[ni] = i;
            if (rc)
                return rc;
            i = ni;
        }
        else {
            i = nxt[i];
        }
    }
    return CK_OK;
}

static int
ck_dfs_dds2(Search *s, Py_ssize_t m, Py_ssize_t iteration, Py_ssize_t level,
            double exc, double slow, Py_ssize_t d)
{
    if (level > iteration)
        /* Below the discrepancy level only the heuristic child remains. */
        return ck_chain2(s, m, exc, slow, d);
    if (m == 0)
        return ck_leaf2(s, exc, slow, d);
    Py_ssize_t lo;
    if (level < iteration) {
        lo = 0;
    }
    else { /* level == iteration */
        if (m < 2)
            return CK_OK; /* no discrepancy possible here */
        lo = 1;
    }
    Py_ssize_t *nxt = s->nxt;
    Py_ssize_t *prv = s->prv;
    Py_ssize_t i = nxt[s->head];
    for (Py_ssize_t q = 0; q < lo; q++)
        i = nxt[i];
    for (Py_ssize_t pos = lo; pos < m; pos++) {
        if (ck_check_budget(s))
            return CK_STOP;
        Py_ssize_t pi = prv[i];
        Py_ssize_t ni = nxt[i];
        nxt[pi] = ni;
        prv[ni] = pi;
        s->nodes_visited++;
        double start = ck_place(s, s->jnodes[i], s->rt[i]);
        s->path_i[d] = i;
        s->path_s[d] = start;
        double wait = start - s->submit[i];
        double e = wait - s->omega;
        double nexc = e > 0.0 ? exc + e : exc;
        double den = s->denom[i];
        double nslow = slow + (wait + den) / den;
        int rc = CK_OK;
        if (!s->prune || !ck_prune_child2(s, nexc, nslow, m - 1))
            rc = ck_dfs_dds2(s, m - 1, iteration, level + 1, nexc, nslow,
                             d + 1);
        ck_unplace(s);
        nxt[pi] = i;
        prv[ni] = i;
        if (rc)
            return rc;
        i = ni;
    }
    return CK_OK;
}

/* ------------------------------------------------------------------ */
/* Drivers: full run (_SearchRunBase.run) and shard replay             */
/* (_ShardRun._run_shard_delta)                                        */
/* ------------------------------------------------------------------ */
static int
ck_run_full(Search *s)
{
    Py_ssize_t n = s->n;
    Py_ssize_t max_disc = n > 1 ? n - 1 : 0; /* max_discrepancies(n) */
    for (Py_ssize_t it = 0; it <= max_disc; it++) {
        s->iterations_started++;
        int rc;
        if (s->lds)
            rc = ck_dfs_lds2(s, n, it, 0.0, 0.0, 0);
        else if (it == 0)
            /* DDS iteration 0 == LDS iteration 0: heuristic path. */
            rc = ck_dfs_lds2(s, n, 0, 0.0, 0.0, 0);
        else
            rc = ck_dfs_dds2(s, n, it, 1, 0.0, 0.0, 0);
        if (rc == CK_ERR)
            return CK_ERR;
        if (rc == CK_STOP) {
            s->limit_hit = 1;
            break;
        }
    }
    return CK_OK;
}

static int
ck_run_shard(Search *s, Py_ssize_t iteration, const Py_ssize_t *path,
             Py_ssize_t path_len, Py_ssize_t counted)
{
    Py_ssize_t *nxt = s->nxt;
    Py_ssize_t *prv = s->prv;
    Py_ssize_t n = s->n;
    Py_ssize_t k_left = iteration; /* LDS: discrepancy budget on the path */
    Py_ssize_t level = 1;          /* DDS: 1-based tree level */
    double exc = 0.0;
    double slow = 0.0;
    Py_ssize_t free_replay = path_len - counted;
    Py_ssize_t placed = 0;
    int pruned = 0;
    int stopped = 0;
    int rc = CK_OK;

    for (Py_ssize_t depth = 0; depth < path_len; depth++) {
        Py_ssize_t pos = path[depth];
        if (depth >= free_replay) {
            if (ck_check_budget(s)) {
                stopped = 1;
                break;
            }
            s->nodes_visited++;
        }
        Py_ssize_t i = nxt[s->head];
        for (Py_ssize_t q = 0; q < pos; q++)
            i = nxt[i];
        Py_ssize_t pi = prv[i];
        Py_ssize_t ni = nxt[i];
        nxt[pi] = ni;
        prv[ni] = pi;
        double start = ck_place(s, s->jnodes[i], s->rt[i]);
        s->path_i[depth] = i;
        s->path_s[depth] = start;
        placed++;
        double wait = start - s->submit[i];
        double e = wait - s->omega;
        if (e > 0.0)
            exc += e;
        double den = s->denom[i];
        slow += (wait + den) / den;
        if (s->lds) {
            if (pos)
                k_left--;
        }
        else {
            level++;
        }
        if (s->prune && ck_prune_child2(s, exc, slow, n - depth - 1)) {
            pruned = 1;
            break;
        }
    }
    if (!pruned && !stopped) {
        Py_ssize_t d = path_len;
        if (s->lds)
            rc = ck_dfs_lds2(s, n - d, k_left, exc, slow, d);
        else
            rc = ck_dfs_dds2(s, n - d, iteration, level, exc, slow, d);
    }
    if (stopped || rc == CK_STOP) {
        s->limit_hit = 1;
        if (rc == CK_STOP)
            rc = CK_OK;
    }
    /* Unwind the replay trail (finally block): every trail placement is
     * the current deepest undo frame, and relinking restores path_i[q]
     * into the list in reverse order. */
    for (Py_ssize_t q = placed - 1; q >= 0; q--) {
        Py_ssize_t i = s->path_i[q];
        ck_unplace(s);
        nxt[prv[i]] = i;
        prv[nxt[i]] = i;
    }
    return rc;
}

/* ------------------------------------------------------------------ */
/* Python boundary: argument unpacking, arena allocation, result build */
/* ------------------------------------------------------------------ */
static void
ck_free(Search *s)
{
    free(s->live);
    free(s->scratch);
    free(s->undo);
    free(s->submit);
    free(s->rt);
    free(s->denom);
    free(s->jnodes);
    free(s->nxt);
    free(s->prv);
    free(s->path_i);
    free(s->path_s);
    free(s->best_i);
    free(s->best_s);
    free(s->any);
    memset(s, 0, sizeof(*s));
}

/* Copy a Python list of numbers into a fresh double[] / long[]. */
static double *
ck_doubles_from(PyObject *seq, Py_ssize_t *len_out)
{
    Py_ssize_t len = PyList_GET_SIZE(seq);
    double *out = malloc((size_t)(len > 0 ? len : 1) * sizeof(double));
    if (out == NULL)
        return NULL;
    for (Py_ssize_t k = 0; k < len; k++) {
        out[k] = PyFloat_AsDouble(PyList_GET_ITEM(seq, k));
        if (out[k] == -1.0 && PyErr_Occurred()) {
            free(out);
            return NULL;
        }
    }
    *len_out = len;
    return out;
}

static long *
ck_longs_from(PyObject *seq, Py_ssize_t *len_out)
{
    Py_ssize_t len = PyList_GET_SIZE(seq);
    long *out = malloc((size_t)(len > 0 ? len : 1) * sizeof(long));
    if (out == NULL)
        return NULL;
    for (Py_ssize_t k = 0; k < len; k++) {
        out[k] = PyLong_AsLong(PyList_GET_ITEM(seq, k));
        if (out[k] == -1 && PyErr_Occurred()) {
            free(out);
            return NULL;
        }
    }
    *len_out = len;
    return out;
}

static int
ck_init(Search *s, int lds, long long node_limit, int prune,
        int record_anytime, int first_leaf_exempt, long capacity, double eps,
        PyObject *times, PyObject *frees, PyObject *submit, PyObject *jnodes,
        PyObject *runtime, PyObject *denom, double now, double omega)
{
    memset(s, 0, sizeof(*s));
    if (!PyList_Check(times) || !PyList_Check(frees) || !PyList_Check(submit)
        || !PyList_Check(jnodes) || !PyList_Check(runtime)
        || !PyList_Check(denom)) {
        PyErr_SetString(PyExc_TypeError, "profile/job arrays must be lists");
        return -1;
    }
    Py_ssize_t n = 0, tmp = 0;
    s->submit = ck_doubles_from(submit, &n);
    s->jnodes = s->submit ? ck_longs_from(jnodes, &tmp) : NULL;
    s->rt = s->jnodes ? ck_doubles_from(runtime, &tmp) : NULL;
    s->denom = s->rt ? ck_doubles_from(denom, &tmp) : NULL;
    if (s->denom == NULL) {
        ck_free(s);
        if (!PyErr_Occurred())
            PyErr_NoMemory();
        return -1;
    }
    Py_ssize_t m0 = PyList_GET_SIZE(times);
    if (m0 == 0 || PyList_GET_SIZE(frees) != m0
        || PyList_GET_SIZE(jnodes) != n || PyList_GET_SIZE(runtime) != n
        || PyList_GET_SIZE(denom) != n) {
        ck_free(s);
        PyErr_SetString(PyExc_ValueError, "malformed profile/job arrays");
        return -1;
    }
    /* Each of the <= n outstanding placements inserts <= 2 breakpoints. */
    Py_ssize_t cap_m = m0 + 2 * n + 8;
    s->live = malloc((size_t)cap_m * sizeof(Seg));
    s->scratch = malloc((size_t)cap_m * sizeof(Seg));
    s->undo = malloc((size_t)(n + 8) * sizeof(UndoFrame));
    s->nxt = malloc((size_t)(n + 1) * sizeof(Py_ssize_t));
    s->prv = malloc((size_t)(n + 1) * sizeof(Py_ssize_t));
    s->path_i = malloc((size_t)(n > 0 ? n : 1) * sizeof(Py_ssize_t));
    s->path_s = malloc((size_t)(n > 0 ? n : 1) * sizeof(double));
    s->best_i = malloc((size_t)(n > 0 ? n : 1) * sizeof(Py_ssize_t));
    s->best_s = malloc((size_t)(n > 0 ? n : 1) * sizeof(double));
    if (!s->live || !s->scratch || !s->undo || !s->nxt || !s->prv
        || !s->path_i || !s->path_s || !s->best_i || !s->best_s) {
        ck_free(s);
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t k = 0; k < m0; k++) {
        Seg *g = &s->live[k];
        g->t = PyFloat_AsDouble(PyList_GET_ITEM(times, k));
        if (g->t == -1.0 && PyErr_Occurred()) {
            ck_free(s);
            return -1;
        }
        g->f = PyLong_AsLong(PyList_GET_ITEM(frees, k));
        if (g->f == -1 && PyErr_Occurred()) {
            ck_free(s);
            return -1;
        }
    }
    s->seg = s->live;
    s->m = m0;
    s->n = n;
    s->head = n;
    /* _nxt = [1..n, 0], _prv = [n, 0..n-1]: jobs threaded in heuristic
     * order through sentinel n (self-loops when n == 0). */
    for (Py_ssize_t k = 0; k < n; k++) {
        s->nxt[k] = k + 1;
        s->prv[k] = k == 0 ? n : k - 1;
    }
    s->nxt[n] = n > 0 ? 0 : n;
    s->prv[n] = n > 0 ? n - 1 : n;
    s->capacity = capacity;
    s->eps = eps;
    s->now = now;
    s->omega = omega;
    s->node_limit = node_limit;
    s->prune = prune;
    s->lds = lds;
    s->first_leaf_exempt = first_leaf_exempt;
    s->record_anytime = record_anytime;
    s->best_d = 0;
    return 0;
}

static PyObject *
ck_anytime_list(const Search *s)
{
    if (!s->record_anytime)
        Py_RETURN_NONE;
    PyObject *out = PyList_New(s->any_n);
    if (out == NULL)
        return NULL;
    for (Py_ssize_t k = 0; k < s->any_n; k++) {
        const AnyRec *rec = &s->any[k];
        PyObject *item = Py_BuildValue(
            "Lddn", rec->nodes_visited, rec->exc, rec->slow, rec->d);
        if (item == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, k, item);
    }
    return out;
}

static int
ck_best_lists(const Search *s, PyObject **idx_out, PyObject **starts_out)
{
    PyObject *idxs = PyList_New(s->best_d);
    PyObject *starts = idxs ? PyList_New(s->best_d) : NULL;
    if (starts == NULL) {
        Py_XDECREF(idxs);
        return -1;
    }
    for (Py_ssize_t k = 0; k < s->best_d; k++) {
        PyObject *iv = PyLong_FromSsize_t(s->best_i[k]);
        PyObject *sv = iv ? PyFloat_FromDouble(s->best_s[k]) : NULL;
        if (sv == NULL) {
            Py_XDECREF(iv);
            Py_DECREF(idxs);
            Py_DECREF(starts);
            return -1;
        }
        PyList_SET_ITEM(idxs, k, iv);
        PyList_SET_ITEM(starts, k, sv);
    }
    *idx_out = idxs;
    *starts_out = starts;
    return 0;
}

static PyObject *
ck_run_search_py(PyObject *Py_UNUSED(self), PyObject *args)
{
    int lds, prune, record_anytime;
    long long node_limit;
    long capacity;
    double eps, now, omega;
    PyObject *times, *frees, *submit, *jnodes, *runtime, *denom;
    if (!PyArg_ParseTuple(args, "iLiildOOOOOOdd", &lds, &node_limit, &prune,
                          &record_anytime, &capacity, &eps, &times, &frees,
                          &submit, &jnodes, &runtime, &denom, &now, &omega))
        return NULL;
    Search s;
    if (ck_init(&s, lds, node_limit, prune, record_anytime,
                /*first_leaf_exempt=*/1, capacity, eps, times, frees, submit,
                jnodes, runtime, denom, now, omega) < 0)
        return NULL;
    int rc;
    Py_BEGIN_ALLOW_THREADS
    rc = ck_run_full(&s);
    Py_END_ALLOW_THREADS
    if (rc == CK_ERR || !s.best_valid) {
        int oom = s.oom;
        ck_free(&s);
        if (oom)
            return PyErr_NoMemory();
        PyErr_SetString(PyExc_RuntimeError, "compiled search failed");
        return NULL;
    }
    PyObject *idxs = NULL, *starts = NULL;
    if (ck_best_lists(&s, &idxs, &starts) < 0) {
        ck_free(&s);
        return NULL;
    }
    PyObject *anytime = ck_anytime_list(&s);
    if (anytime == NULL) {
        Py_DECREF(idxs);
        Py_DECREF(starts);
        ck_free(&s);
        return NULL;
    }
    PyObject *result = Py_BuildValue(
        "ddnNNLLLiiN", s.b_exc, s.b_slow, s.best_d, idxs, starts,
        s.nodes_visited, s.leaves_evaluated, s.iterations_started,
        s.limit_hit, s.improved_after_first, anytime);
    ck_free(&s);
    return result;
}

static PyObject *
ck_run_shard_py(PyObject *Py_UNUSED(self), PyObject *args)
{
    int lds, prune, record_anytime;
    long iteration, counted;
    long long node_limit;
    long capacity;
    double eps, now, omega, seed_exc, seed_slow;
    PyObject *path, *times, *frees, *submit, *jnodes, *runtime, *denom;
    if (!PyArg_ParseTuple(args, "ilOlLiildOOOOOOdddd", &lds, &iteration,
                          &path, &counted, &node_limit, &prune,
                          &record_anytime, &capacity, &eps, &times, &frees,
                          &submit, &jnodes, &runtime, &denom, &now, &omega,
                          &seed_exc, &seed_slow))
        return NULL;
    if (!PyTuple_Check(path)) {
        PyErr_SetString(PyExc_TypeError, "shard path must be a tuple");
        return NULL;
    }
    Py_ssize_t path_len = PyTuple_GET_SIZE(path);
    Py_ssize_t *cpath =
        malloc((size_t)(path_len > 0 ? path_len : 1) * sizeof(Py_ssize_t));
    if (cpath == NULL)
        return PyErr_NoMemory();
    for (Py_ssize_t k = 0; k < path_len; k++) {
        cpath[k] = PyLong_AsSsize_t(PyTuple_GET_ITEM(path, k));
        if (cpath[k] == -1 && PyErr_Occurred()) {
            free(cpath);
            return NULL;
        }
    }
    Search s;
    if (ck_init(&s, lds, node_limit, prune, record_anytime,
                /*first_leaf_exempt=*/0, capacity, eps, times, frees, submit,
                jnodes, runtime, denom, now, omega) < 0) {
        free(cpath);
        return NULL;
    }
    /* Seed the leader's iteration-0 incumbent: the shard reports a best
     * only on strict improvement (has_order stays 0 otherwise). */
    s.best_valid = 1;
    s.has_order = 0;
    s.b_exc = seed_exc;
    s.b_slow = seed_slow;
    int rc;
    Py_BEGIN_ALLOW_THREADS
    rc = ck_run_shard(&s, iteration, cpath, path_len, counted);
    Py_END_ALLOW_THREADS
    free(cpath);
    if (rc == CK_ERR) {
        int oom = s.oom;
        ck_free(&s);
        if (oom)
            return PyErr_NoMemory();
        PyErr_SetString(PyExc_RuntimeError, "compiled shard failed");
        return NULL;
    }
    PyObject *idxs = NULL, *starts = NULL;
    if (ck_best_lists(&s, &idxs, &starts) < 0) {
        ck_free(&s);
        return NULL;
    }
    PyObject *anytime = ck_anytime_list(&s);
    if (anytime == NULL) {
        Py_DECREF(idxs);
        Py_DECREF(starts);
        ck_free(&s);
        return NULL;
    }
    PyObject *result = Py_BuildValue(
        "iddnNNLLiN", s.has_order, s.b_exc, s.b_slow, s.best_d, idxs, starts,
        s.nodes_visited, s.leaves_evaluated, s.limit_hit, anytime);
    ck_free(&s);
    return result;
}

static PyMethodDef ck_methods[] = {
    {"run_search", ck_run_search_py, METH_VARARGS,
     "Full delta-kernel search; mirrors _FastSearchRun.run() bit-for-bit.\n"
     "(lds, node_limit, prune, record_anytime, capacity, eps, times, frees,\n"
     " submit, nodes, runtime, denom, now, omega) ->\n"
     "(best_exc, best_slow, best_d, best_idx, best_starts, nodes_visited,\n"
     " leaves_evaluated, iterations_started, limit_hit,\n"
     " improved_after_first, anytime|None)"},
    {"run_shard", ck_run_shard_py, METH_VARARGS,
     "One parallel-engine shard; mirrors _ShardRun.run_shard().\n"
     "(lds, iteration, path, counted, node_limit, prune, record_anytime,\n"
     " capacity, eps, times, frees, submit, nodes, runtime, denom, now,\n"
     " omega, seed_exc, seed_slow) ->\n"
     "(has_order, best_exc, best_slow, best_d, best_idx, best_starts,\n"
     " nodes_visited, leaves_evaluated, limit_hit, anytime|None)"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef ck_module = {
    PyModuleDef_HEAD_INIT,
    "repro.core._ckernel",
    "Compiled discrepancy-search kernel (see repro.core.ckernel).",
    -1,
    ck_methods,
    NULL,
    NULL,
    NULL,
    NULL,
};

PyMODINIT_FUNC
PyInit__ckernel(void)
{
    return PyModule_Create(&ck_module);
}
