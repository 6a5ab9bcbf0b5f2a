/* Fast-path trace-construction kernels.
 *
 * Exact C ports of the three trace-pipeline hot spots, each verified
 * element-for-element identical to its numpy reference by the
 * equivalence suites (tests/framework/test_fasttrace.py,
 * tests/apps/test_trace_engines.py, tests/reorder/test_gorder_fast.py);
 * any behavioural change here must keep that property (or change both
 * implementations together).
 *
 *   repro_gather       — ragged CSR edge gather: the positions/endpoints
 *                        expansion behind GraphApp._gather and
 *                        edge_map's gather_out/gather_in.
 *   repro_superstep_count / repro_superstep_trace
 *                      — one traced super-step's keyed E, [W], P, V, O
 *                        entries (the numpy streams of
 *                        GraphApp._trace_pull/_push, bit-identical keys
 *                        included) generated straight from the CSR in
 *                        trace order, one interleave quantum at a time,
 *                        and run-length-compressed into outputs sized by
 *                        an O(ids) counting pass: no key buffer and no
 *                        merge.  Both take a window of interleave quanta:
 *                        the whole super-step for GraphApp.trace, windows
 *                        of ~chunk_edges edges for the fused
 *                        trace+simulate stage (GraphApp.trace_streaming),
 *                        whose windows concatenate to the same trace.
 *   repro_gorder       — the Gorder greedy placement loop: windowed
 *                        affinity score updates plus an indexed max-heap
 *                        (one entry per touched unplaced vertex; rises
 *                        sift up in place, decays are re-keyed lazily at
 *                        the top).  The permutation is fixed by the
 *                        placement rule — highest score, lowest id among
 *                        touched unplaced vertices, else the lowest
 *                        unplaced id — which the Python loop's lazy
 *                        heapq implements too, so the orders match
 *                        exactly.
 *
 * Compiled on demand by repro/_compile.py with the system C compiler
 * into a shared library (with -ffp-contract=off, so the super-step keys
 * round exactly like numpy's) and driven through ctypes.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* ---------------------------------------------------------------- gather */

/* Expand the CSR ranges of `ids` in order.  For the k-th edge overall:
 * positions[k] = its index into the edge array, others[k] = its endpoint,
 * repeats[k] = the id it belongs to (may be NULL when not needed).
 * Output arrays must hold sum of the ids' degrees. */
void repro_gather(const int64_t *offsets, const int32_t *endpoints,
                  const int64_t *ids, int64_t n_ids, int64_t *positions,
                  int64_t *others, int64_t *repeats) {
    int64_t k = 0;
    for (int64_t i = 0; i < n_ids; i++) {
        int64_t v = ids[i];
        int64_t end = offsets[v + 1];
        for (int64_t p = offsets[v]; p < end; p++) {
            positions[k] = p;
            others[k] = (int64_t)endpoints[p];
            k++;
        }
    }
    if (repeats) {
        k = 0;
        for (int64_t i = 0; i < n_ids; i++) {
            int64_t v = ids[i];
            int64_t deg = offsets[v + 1] - offsets[v];
            for (int64_t j = 0; j < deg; j++)
                repeats[k++] = v;
        }
    }
}

/* ---------------------------------------------------- super-step streams
 *
 * One traced super-step's keyed access streams, generated straight from
 * the CSR: the entries GraphApp._trace_pull / _trace_push add to a
 * TraceBuilder (same entries, bit-identical float64 keys), produced in
 * the builder's stable sorted order and run-length-compressed straight
 * into the outputs, with no per-edge Python array, no key buffer and no
 * merge in between.  Stream order is E (edge array), W (weights;
 * weighted push only), P (property), V (vertex array), O (output
 * property); the builder's stable sort breaks key ties by it.
 *
 * Keys repeat numpy's IEEE operation order exactly (the library is built
 * with -ffp-contract=off, so no FMA fuses them; equal keys tie, so bits
 * matter):
 *   edge k     key(k) = (double)k + off(k),
 *              off(k) = (double)quantum(k) * (2.0 * E)
 *   E, W, P    key(k) - 0.5, key(k) - 0.4, key(k)
 *   V          ((double)first_edge - 0.7) + off(min(first_edge, E - 1))
 *   O (pull)   ((double)last_edge + 0.3) + off(min(last_edge, E - 1))
 *   O (push)   ((double)first_edge - 0.6) + off(min(first_edge, E - 1))
 * quantum(k) counts whole quanta from the start of the core run holding
 * edge k: the maximal run of consecutive edges owned by one core, which
 * restarts wherever the core changes (ids need not be sorted); off is
 * 0.0 when E == 0.  E, W, V and O keep only their block transitions (the
 * first entry, then every entry whose block differs from its stream
 * predecessor's).  A zero-degree id's first and last edge is the next
 * edge, owned by the next id with edges, or E after the last edge.
 *
 * Slices.  Every key of quantum q lies in [q*2E - 0.7, q*2E + E + 0.3]
 * and quanta are 2E apart, so for E >= 2 the quanta own disjoint key
 * ranges (E <= 1 has one quantum), equal keys imply equal quanta, and
 * the sorted trace is its quanta's sorted slices in quantum order.  An
 * edge's E, W and P entries belong to quantum(k); a V entry, and a
 * push's O entry, to the quantum of min(first_edge, E - 1); a pull's O
 * entry to that of min(last_edge, E - 1).  Inside slice q every key is
 * x + q*2E, x one of k - 0.5, k - 0.4, k, first_edge - 0.7,
 * first_edge - 0.6 and last_edge + 0.3, and the core runs hold
 * ascending, disjoint ranges of k in walk order.  So slice q visits the
 * core runs in walk order and, in each, the ids owning its quantum-q
 * edges in walk order, and per id writes its V entries (together with
 * those of the zero-degree ids anchored to it), a push's O entries, its
 * edges' E, W and P entries, then a pull's O entry; a pull's zero-degree
 * O entries, at first_edge + 0.3, follow the P entry of the edge they
 * anchor to.  That order ascends in x and, inside a stream, is stream
 * order.  Rounding reorders only entries whose x are equal or nearly
 * so: a pull's O at last_edge + 0.3 and the next id's V at
 * first_edge - 0.7 are the same x and round to equal keys (or, at
 * last_edge = 0, one ulp apart), where the builder puts V first.  So
 * each entry is inserted stably on (key, stream) as it is appended,
 * moving back past the few that sort after it, and the finished slice,
 * exactly in the builder's stable order, is run-length-compressed into
 * the outputs.
 *
 * Windows.  Both entry points keep only the entries of the quanta
 * [q0, q1); the window [0, INT64_MAX) is the whole super-step.  The
 * windows of any partition of the quanta concatenate to the whole trace
 * run for run:
 *   - a window is whole slices, each sorted on its own (above);
 *   - same elision: a block-transition entry is compared with its
 *     stream-order predecessor whether or not that lies in the window:
 *     the previous id for V and O, and for E and W the CSR position of
 *     the previous edge;
 *   - same anchors: a zero-degree id's entries sit in the quantum of the
 *     edge it anchors to, whichever window that is;
 *   - seam runs: a run split between two windows is re-merged by
 *     StreamingTrace.chunks.
 * The counting pass skips the edges outside its window arithmetically,
 * and the writing pass starts each core run at the window's first
 * quantum, so a window costs O(ids) plus its own entries. */

/* repro.framework.trace.BLOCK_BYTES */
#define TRACE_BLOCK_BYTES 64

/* sizes[]: the window's entries per stream, then the super-step's edge
 * count and its number of quanta. */
enum { SS_E, SS_W, SS_P, SS_V, SS_O, SS_EDGES, SS_QUANTA, SS_SIZES };

/* geom[]: (base byte address, element bytes) per region.  A weight
 * element size of 0 means no weight stream. */
enum { G_VERTEX = 0, G_EDGE = 2, G_PROP = 4, G_OUT = 6, G_WEIGHT = 8 };

static inline int64_t block_of(const int64_t *geom, int g, int64_t idx) {
    /* Addresses are non-negative: an unsigned division is one shift. */
    return (int64_t)((uint64_t)(geom[g] + idx * geom[g + 1]) /
                     TRACE_BLOCK_BYTES);
}

/* The i-th active id; ids == NULL means every vertex in order. */
static inline int64_t id_at(const int64_t *ids, int64_t i) {
    return ids ? ids[i] : i;
}

/* Block transitions a stream emits over the element range [s, e),
 * e > s, after an element in block prev_blk (-1: none).  Blocks never
 * decrease inside the range, and elements at most a block wide
 * (superstep_sizes checks) step at most one block at a time. */
static inline int64_t range_transitions(const int64_t *geom, int g,
                                        int64_t prev_blk, int64_t s,
                                        int64_t e) {
    int64_t first = block_of(geom, g, s);
    return block_of(geom, g, e - 1) - first + (first != prev_blk);
}

/* One super-step window's inputs, as both entry points take them. */
typedef struct {
    const int64_t *offsets, *ids;
    int64_t n_ids;
    int push;
    const int64_t *geom;
    int64_t num_vertices, num_cores, quantum, q0, q1;
} Step;

/* Where quantum q starts as a local index within a core run: q * quantum,
 * saturated at INT64_MAX. */
static inline int64_t quantum_start(int64_t q, int64_t quantum) {
    return q > INT64_MAX / quantum ? INT64_MAX : q * quantum;
}

static inline int64_t clamp(int64_t x, int64_t lo, int64_t hi) {
    return x < lo ? lo : x > hi ? hi : x;
}

/* The counting pass: counts[] receives the window's entries per stream,
 * the super-step's edges and its quanta.
 *
 * The walk tracks each edge's local index within its core run, L, not
 * its quantum L / quantum: the window becomes the index range [w0, w1),
 * so an id is placed by comparisons, and the edges of an id are counted
 * arithmetically.  A block-transition entry's stream predecessor is the
 * previous id (V, O) or the CSR position of the previous edge (E, W). */
static void superstep_count(const Step *in, int64_t *counts) {
    const int64_t *offsets = in->offsets, *ids = in->ids, *geom = in->geom;
    const int64_t n_ids = in->n_ids, quantum = in->quantum;
    const int64_t w0 = quantum_start(in->q0, quantum);
    const int64_t w1 = quantum_start(in->q1, quantum);
    const int64_t num_cores = in->num_cores;
    const int64_t divisor = in->num_vertices > 1 ? in->num_vertices : 1;
    const int weighted = geom[G_WEIGHT + 1] != 0;
    const int push = in->push;
    int64_t at[SS_O + 1] = {0}; /* entries per stream so far */

    int64_t k = 0;          /* super-step edges walked so far */
    int64_t run_core = -1;  /* core owning edge k - 1 */
    int64_t L = 0;          /* local index of edge k, if it continues the
                               run */
    int64_t last_L = 0;     /* local index of edge k - 1 */
    int64_t max_L = -1;     /* largest local index so far */
    int64_t ahead = -1;     /* next id with edges, for zero-degree ids */
    int64_t ahead_L = 0;    /* local index of that id's first edge */
    int64_t prev_p = -1;    /* CSR position of edge k - 1 (-1: none) */
    int64_t prev_v = -1;    /* the previous id (-1: none) */
    int64_t core = 0, core_lo = 0, core_hi = 0; /* v's core owns
                                                   [core_lo, core_hi) */

    for (int64_t i = 0; i < n_ids; i++) {
        int64_t v = id_at(ids, i);
        if (v < core_lo || v >= core_hi) {
            core = v * num_cores / divisor;
            core_lo = (core * divisor + num_cores - 1) / num_cores;
            core_hi = ((core + 1) * divisor + num_cores - 1) / num_cores;
        }
        int64_t s = offsets[v], d = offsets[v + 1] - s;
        int64_t first_L;
        if (d > 0) {
            if (k == 0 || core != run_core) {
                L = 0;
                run_core = core;
            }
            first_L = L;
            L += d;
            last_L = L - 1;
            if (last_L > max_L)
                max_L = last_L;
            if (L <= w0 || first_L >= w1) { /* no entry in the window */
                prev_p = s + d - 1;
                prev_v = v;
                k += d;
                continue;
            }
            int64_t lo = clamp(w0 - first_L, 0, d);
            int64_t hi = clamp(w1 - first_L, 0, d);
            if (lo < hi) {
                int64_t pred = lo ? s + lo - 1 : prev_p;
                int64_t eb = pred < 0 ? -1 : block_of(geom, G_EDGE, pred);
                int64_t wb = pred < 0 ? -1 : block_of(geom, G_WEIGHT, pred);
                at[SS_E] += range_transitions(geom, G_EDGE, eb, s + lo, s + hi);
                if (weighted)
                    at[SS_W] += range_transitions(geom, G_WEIGHT, wb, s + lo,
                                                  s + hi);
                at[SS_P] += hi - lo;
            }
            prev_p = s + d - 1;
            k += d;
        } else {
            if (ahead < i) {
                ahead = i + 1;
                while (ahead < n_ids && offsets[id_at(ids, ahead) + 1] ==
                                            offsets[id_at(ids, ahead)])
                    ahead++;
                if (ahead < n_ids) {
                    int64_t ahead_core =
                        id_at(ids, ahead) * num_cores / divisor;
                    ahead_L = (k == 0 || ahead_core != run_core) ? 0 : L;
                }
            }
            /* min(first_edge, E - 1): edge k, which the next id with
             * edges owns, or else the last edge. */
            first_L = ahead < n_ids ? ahead_L : last_L;
        }
        int64_t tail_L = push || d == 0 ? first_L : last_L;
        if (w0 <= first_L && first_L < w1 &&
            (prev_v < 0 || block_of(geom, G_VERTEX, v) !=
                               block_of(geom, G_VERTEX, prev_v)))
            at[SS_V]++;
        if (w0 <= tail_L && tail_L < w1 &&
            (prev_v < 0 ||
             block_of(geom, G_OUT, v) != block_of(geom, G_OUT, prev_v)))
            at[SS_O]++;
        prev_v = v;
    }
    for (int j = SS_E; j <= SS_O; j++)
        counts[j] = at[j];
    counts[SS_EDGES] = k;
    counts[SS_QUANTA] = max_L < 0 ? 1 : max_L / quantum + 1;
}

/* Counting pass, O(ids): fills sizes[SS_SIZES] for repro_superstep_trace
 * over the same inputs and window. */
void repro_superstep_count(const int64_t *offsets, const int64_t *ids,
                           int64_t n_ids, int32_t push, const int64_t *geom,
                           int64_t num_vertices, int64_t num_cores,
                           int64_t quantum, int64_t q0, int64_t q1,
                           int64_t *sizes) {
    Step in = {offsets, ids, n_ids, push, geom,
               num_vertices, num_cores, quantum, q0, q1};
    superstep_count(&in, sizes);
}

/* One core run's cursor in the writing pass. */
typedef struct {
    int64_t i;      /* next id; when j == 0, the first of the zero-degree
                       ids anchored to the next id with edges */
    int64_t j;      /* edges of id i already written */
    int64_t k;      /* super-step index of the next edge */
    int64_t left;   /* edges of the run not yet written */
    int64_t eb, wb; /* E and W blocks of the previous edge in walk order
                       (-1: none) */
    int64_t core;
    int tail;       /* the last run: the trailing zero-degree ids follow
                       its last edge */
} Run;

/* Place a cursor on each core run with edges in the window, at the
 * window's first quantum, in walk order: one O(ids) walk.  Also returns
 * the super-step's edges and quanta.  With no edges at all, one empty
 * run holds every id as its tail (quantum 0).  Returns 0, or -1 on
 * allocation failure. */
static int place_runs(const Step *in, Run **runs_out, int64_t *nruns_out,
                      int64_t *edges_out, int64_t *quanta_out) {
    const int64_t *offsets = in->offsets, *ids = in->ids, *geom = in->geom;
    const int64_t n_ids = in->n_ids, num_cores = in->num_cores;
    const int64_t divisor = in->num_vertices > 1 ? in->num_vertices : 1;
    const int64_t w0 = quantum_start(in->q0, in->quantum);
    int64_t cap = 64, nruns = 0;
    Run *runs = (Run *)malloc((size_t)cap * sizeof(Run));
    if (!runs)
        return -1;
    Run *open = NULL;      /* the current run's cursor, once placed */
    int64_t k = 0, L = 0, max_L = -1;
    int64_t run_core = -1;
    int64_t prev_p = -1;   /* CSR position of edge k - 1 (-1: none) */
    int64_t group = 0;     /* the id after the last id with edges */
    int placed = 0;        /* the current run's cursor is placed */
    int64_t core = 0, core_lo = 0, core_hi = 0;
    for (int64_t i = 0; i < n_ids; i++) {
        int64_t v = id_at(ids, i);
        int64_t s = offsets[v], d = offsets[v + 1] - s;
        if (d == 0)
            continue;
        if (v < core_lo || v >= core_hi) {
            core = v * num_cores / divisor;
            core_lo = (core * divisor + num_cores - 1) / num_cores;
            core_hi = ((core + 1) * divisor + num_cores - 1) / num_cores;
        }
        if (k == 0 || core != run_core) {
            if (open)
                open->left = L - w0;
            open = NULL;
            L = 0;
            run_core = core;
            placed = 0;
        }
        int64_t first_L = L;
        L += d;
        if (L - 1 > max_L)
            max_L = L - 1;
        if (!placed && L > w0) { /* first_L <= w0 < L */
            placed = 1;
            if (nruns == cap) {
                Run *grown =
                    (Run *)realloc(runs, (size_t)(2 * cap) * sizeof(Run));
                if (!grown) {
                    free(runs);
                    return -1;
                }
                runs = grown;
                cap *= 2;
            }
            open = &runs[nruns++];
            int64_t j = w0 - first_L;
            int64_t pred = j ? s + j - 1 : prev_p;
            open->i = j ? i : group;
            open->j = j;
            open->k = k + j;
            open->eb = pred < 0 ? -1 : block_of(geom, G_EDGE, pred);
            open->wb = pred < 0 ? -1 : block_of(geom, G_WEIGHT, pred);
            open->core = core;
            open->tail = 0;
        }
        prev_p = s + d - 1;
        group = i + 1;
        k += d;
    }
    if (open) {
        open->left = L - w0;
        open->tail = 1;
    }
    if (k == 0 && n_ids > 0) {
        Run empty = {0, 0, 0, 0, -1, -1, 0, 1};
        runs[nruns++] = empty;
    }
    *runs_out = runs;
    *nruns_out = nruns;
    *edges_out = k;
    *quanta_out = max_L < 0 ? 1 : max_L / in->quantum + 1;
    return 0;
}

/* A slice entry: its key and its packed payload, block | write << 32 |
 * core << 40, with the stream above bit ENT_STREAM for the tie order. */
typedef struct {
    double key;
    uint64_t x;
} Ent;

#define ENT_STREAM 48
#define ENT_PAYLOAD ((1ull << ENT_STREAM) - 1)

static inline uint64_t ent_x(int stream, int64_t blk, uint64_t w,
                             int64_t core) {
    /* Block ids fit uint32 (AddressSpace's bound), cores uint8
     * (superstep_trace_fast checks num_cores). */
    return (uint64_t)(uint32_t)blk | w << 32 | (uint64_t)(uint8_t)core << 40 |
           (uint64_t)stream << ENT_STREAM;
}

/* Insert entry (key, x) into the sorted e[0, at) after the last entry
 * that does not sort after it on (key, stream): a stable insertion, so
 * the entries of one stream keep their order.  The rare slow path of
 * put(). */
static __attribute__((noinline)) void insert_back(Ent *e, int64_t at,
                                                  double key, uint64_t x) {
    int64_t j = at;
    while (j > 0 && (e[j - 1].key > key ||
                     (e[j - 1].key == key &&
                      e[j - 1].x >> ENT_STREAM > x >> ENT_STREAM))) {
        e[j] = e[j - 1];
        j--;
    }
    e[j].key = key;
    e[j].x = x;
}

/* The (key, stream) of the slice's last entry: where the next entry
 * goes when it sorts after it, the common case. */
typedef struct {
    double key;
    uint64_t stream;
} Last;

/* Append entry (key, x) to the slice e[0, at), stably inserted on
 * (key, stream).  Returns the new length. */
static inline int64_t put(Ent *e, int64_t at, Last *last, double key,
                          uint64_t x) {
    uint64_t stream = x >> ENT_STREAM;
    if (key > last->key || (key == last->key && stream >= last->stream)) {
        e[at].key = key;
        e[at].x = x;
        last->key = key;
        last->stream = stream;
    } else {
        insert_back(e, at, key, x); /* the last entry stays last */
    }
    return at + 1;
}

/* The writing pass's inputs and the slice being built. */
typedef struct {
    const int64_t *offsets, *ids, *geom;
    const int32_t *endpoints;
    const uint8_t *write_mask;
    int64_t n_ids, num_cores, divisor, quantum;
    int push, weighted;
    double two_e;
    Ent *e;               /* the slice's entries, sorted */
    int64_t n, cap;
    Last last;
    int64_t counts[SS_O + 1];
} Gen;

/* Room for `extra` more entries in the slice.  Returns 0, or -1 on
 * allocation failure. */
static int reserve(Gen *g, int64_t extra) {
    if (g->n + extra <= g->cap)
        return 0;
    int64_t cap = 2 * g->cap > g->n + extra ? 2 * g->cap : g->n + extra;
    Ent *e = (Ent *)realloc(g->e, (size_t)cap * sizeof(Ent));
    if (!e)
        return -1;
    g->e = e;
    g->cap = cap;
    return 0;
}

/* Block transitions of the vertex (V) or output (O) array over the ids
 * [i0, i1), all keyed `key`; each id's predecessor is the previous id in
 * walk order.  The slice has room for i1 - i0 more entries. */
static void id_entries(Gen *g, int stream, int region, int64_t i0,
                       int64_t i1, double key, uint64_t w) {
    const int64_t *ids = g->ids, *geom = g->geom;
    Ent *e = g->e;
    Last last = g->last;
    int64_t at = g->n;
    int64_t prev = i0 > 0 ? block_of(geom, region, id_at(ids, i0 - 1)) : -1;
    for (int64_t x = i0; x < i1; x++) {
        int64_t v = id_at(ids, x), b = block_of(geom, region, v);
        if (b != prev)
            at = put(e, at, &last, key,
                     ent_x(stream, b, w, v * g->num_cores / g->divisor));
        prev = b;
    }
    g->counts[stream] += at - g->n;
    g->n = at;
    g->last = last;
}

/* The E, [W], P entries of m edges of run r from CSR position p on,
 * advancing the run's edge cursor and block predecessors.  The slice has
 * room for 3 * m more entries.  Compiled once per (weighted, masked)
 * pair, so the common unweighted, unmasked loop carries neither test. */
static inline __attribute__((always_inline)) void
edge_loop(Gen *g, Run *r, int64_t p, int64_t m, double off, int weighted,
          int masked) {
    const int64_t e_base = g->geom[G_EDGE], e_size = g->geom[G_EDGE + 1];
    const int64_t w_base = g->geom[G_WEIGHT], w_size = g->geom[G_WEIGHT + 1];
    const int64_t p_base = g->geom[G_PROP], p_size = g->geom[G_PROP + 1];
    const int32_t *endpoints = g->endpoints;
    const uint8_t *write_mask = g->write_mask;
    const uint64_t cx = (uint64_t)(uint8_t)r->core << 40;
    const uint64_t sx_e = (uint64_t)SS_E << ENT_STREAM | cx;
    const uint64_t sx_w = (uint64_t)SS_W << ENT_STREAM | cx;
    const uint64_t sx_p = (uint64_t)SS_P << ENT_STREAM | cx |
                          (uint64_t)(g->push ? 1 : 0) << 32;
    Ent *e = g->e;
    Last last = g->last;
    int64_t at = g->n, n_e = 0, n_w = 0;
    int64_t eb = r->eb, wb = r->wb, kk = r->k;
    for (int64_t end = p + m; p < end; p++, kk++) {
        double key = (double)kk + off;
        int64_t b = (int64_t)((uint64_t)(e_base + p * e_size) /
                              TRACE_BLOCK_BYTES);
        if (b != eb) {
            at = put(e, at, &last, key - 0.5, sx_e | (uint32_t)b);
            eb = b;
            n_e++;
        }
        if (weighted) {
            b = (int64_t)((uint64_t)(w_base + p * w_size) / TRACE_BLOCK_BYTES);
            if (b != wb) {
                at = put(e, at, &last, key - 0.4, sx_w | (uint32_t)b);
                wb = b;
                n_w++;
            }
        }
        uint64_t x = sx_p | (uint32_t)((uint64_t)(p_base + endpoints[p] * p_size) /
                                       TRACE_BLOCK_BYTES);
        if (masked) /* the mask replaces the push's write flag */
            x = (x & ~(1ull << 32)) | (uint64_t)write_mask[kk] << 32;
        at = put(e, at, &last, key, x);
    }
    g->counts[SS_E] += n_e;
    g->counts[SS_W] += n_w;
    g->counts[SS_P] += m;
    g->n = at;
    g->last = last;
    r->eb = eb;
    r->wb = wb;
    r->k = kk;
}

static void edge_entries(Gen *g, Run *r, int64_t p, int64_t m, double off) {
    if (g->write_mask)
        edge_loop(g, r, p, m, off, g->weighted, 1);
    else if (g->weighted)
        edge_loop(g, r, p, m, off, 1, 0);
    else
        edge_loop(g, r, p, m, off, 0, 0);
}

/* Append run r's entries of the current slice (key offset `off`): its
 * next quantum of edges, their ids' V and O entries, and after its last
 * edge, for the last run, the trailing zero-degree ids'.  Returns 0, or
 * -1 on allocation failure. */
static int run_slice(Gen *g, Run *r, double off) {
    const int64_t *offsets = g->offsets, *ids = g->ids;
    const int push = g->push;
    int64_t budget = r->left < g->quantum ? r->left : g->quantum;
    r->left -= budget;
    while (budget > 0) {
        int64_t i = r->i, zeros = i; /* pull: zero-degree O entries due */
        if (r->j == 0) {
            /* Open the group: the zero-degree ids anchored to the next
             * id with edges, then that id, all keyed at its first edge. */
            int64_t last = i;
            while (offsets[id_at(ids, last) + 1] == offsets[id_at(ids, last)])
                last++;
            if (reserve(g, 2 * (last - i + 1)))
                return -1;
            double first = (double)r->k;
            id_entries(g, SS_V, G_VERTEX, i, last + 1, (first - 0.7) + off, 0);
            if (push)
                id_entries(g, SS_O, G_OUT, i, last + 1, (first - 0.6) + off,
                           0);
            r->i = i = last;
        }
        int64_t v = id_at(ids, i), s = offsets[v], d = offsets[v + 1] - s;
        int64_t m = d - r->j < budget ? d - r->j : budget;
        if (reserve(g, 3 * m + (i - zeros) + 1))
            return -1;
        if (!push && zeros < i) {
            double first = (double)r->k;
            edge_entries(g, r, s, 1, off);
            id_entries(g, SS_O, G_OUT, zeros, i, (first + 0.3) + off, 1);
            edge_entries(g, r, s + 1, m - 1, off);
        } else {
            edge_entries(g, r, s + r->j, m, off);
        }
        r->j += m;
        budget -= m;
        if (r->j == d) {
            if (!push)
                id_entries(g, SS_O, G_OUT, i, i + 1,
                           ((double)(r->k - 1) + 0.3) + off, 1);
            r->i++;
            r->j = 0;
        }
    }
    if (r->tail && r->left == 0) {
        int64_t i = r->i, n_ids = g->n_ids;
        if (reserve(g, 2 * (n_ids - i)))
            return -1;
        double first = (double)r->k; /* E */
        id_entries(g, SS_V, G_VERTEX, i, n_ids, (first - 0.7) + off, 0);
        id_entries(g, SS_O, G_OUT, i, n_ids,
                   push ? (first - 0.6) + off : (first + 0.3) + off, !push);
        r->i = n_ids;
    }
    return 0;
}

/* Generate the window's entries of one super-step in trace order, slice
 * by slice, and run-length-compress them into the outputs, exactly as
 * TraceBuilder.build's numpy compression does for its sorted streams:
 * merge consecutive accesses to the same block by the same core with
 * the same read/write kind.  `sizes` comes from repro_superstep_count on
 * the same inputs and window; outputs must hold the sum of
 * sizes[SS_E..SS_O] entries, whose sum is also the window's access
 * total.  `write_mask` (push only, may be NULL) flags which property
 * accesses write, per super-step edge; without it a push writes every
 * property access and a pull none.  Returns the run count, -1 on
 * allocation failure, or -2 if `sizes` does not match the inputs (the
 * outputs then hold no trace): the pass never writes past the outputs
 * and must count exactly `sizes`. */
int64_t repro_superstep_trace(const int64_t *offsets, const int64_t *ids,
                              int64_t n_ids, int32_t push, const int64_t *geom,
                              int64_t num_vertices, int64_t num_cores,
                              int64_t quantum, int64_t q0, int64_t q1,
                              const int32_t *endpoints,
                              const uint8_t *write_mask, const int64_t *sizes,
                              uint32_t *out_blocks, uint8_t *out_writes,
                              uint8_t *out_cores) {
    Step in = {offsets, ids, n_ids, push, geom,
               num_vertices, num_cores, quantum, q0, q1};
    int64_t n = 0;
    for (int j = SS_E; j <= SS_O; j++) {
        if (sizes[j] < 0)
            return -2;
        n += sizes[j];
    }
    Run *runs;
    int64_t nruns, edges, quanta;
    if (place_runs(&in, &runs, &nruns, &edges, &quanta))
        return -1;
    int64_t rc = -2;
    Gen g = {offsets, ids, geom, endpoints, write_mask,
             n_ids, num_cores, num_vertices > 1 ? num_vertices : 1, quantum,
             push, geom[G_WEIGHT + 1] != 0, 2.0 * (double)edges,
             NULL, 0, 0, {0, 0}, {0}};
    if (edges != sizes[SS_EDGES] || quanta != sizes[SS_QUANTA])
        goto done;
    rc = -1;
    if (reserve(&g, 3 * num_cores * (quantum < 4096 ? quantum : 4096) + 64))
        goto done;
    uint64_t prev = ~0ull; /* no payload: bits 33-39 are always clear */
    int64_t r = 0, total = 0, live = nruns;
    int64_t q_end = q1 < quanta ? q1 : quanta;
    for (int64_t q = q0; q < q_end && live; q++) {
        double off = (double)q * g.two_e;
        int64_t kept = 0;
        g.n = 0;
        g.last.key = -HUGE_VAL; /* keys are finite */
        g.last.stream = 0;
        for (int64_t x = 0; x < live; x++) {
            if (run_slice(&g, &runs[x], off))
                goto done;
            if (runs[x].left > 0)
                runs[kept++] = runs[x];
        }
        live = kept;
        if (g.n > n - total) {
            rc = -2;
            goto done;
        }
        total += g.n;
        /* Branch-free run-length compression: every entry is written at
         * the next free slot, which only advances on a new run; it never
         * passes the entries seen so far, so it stays below n. */
        const Ent *e = g.e;
        for (int64_t x = 0; x < g.n; x++) {
            uint64_t p = e[x].x & ENT_PAYLOAD;
            out_blocks[r] = (uint32_t)p;
            out_writes[r] = (uint8_t)(p >> 32);
            out_cores[r] = (uint8_t)(p >> 40);
            r += p != prev;
            prev = p;
        }
    }
    rc = r;
    for (int j = SS_E; j <= SS_O; j++)
        if (g.counts[j] != sizes[j])
            rc = -2;
done:
    free(runs);
    free(g.e);
    return rc;
}

/* ----------------------------------------------------------------- gorder */

/* Indexed max-heap over the touched, unplaced vertices: one entry per
 * vertex, ordered by (key descending, id ascending), with pos[v] the
 * entry's index or -1.  An entry's key is the score it was queued at and
 * never understates the vertex's current score: rises are applied in
 * place (sift-up), decays are left lazy and re-keyed only when the entry
 * reaches the top. */
typedef struct {
    int64_t key, v;
} Entry;

typedef struct {
    Entry *e;
    int64_t *pos;
    int64_t size;
} IHeap;

static inline int before(Entry a, Entry b) {
    return a.key > b.key || (a.key == b.key && a.v < b.v);
}

static void sift_up(IHeap *h, int64_t i) {
    Entry x = h->e[i];
    while (i > 0) {
        int64_t p = (i - 1) / 2;
        if (!before(x, h->e[p]))
            break;
        h->e[i] = h->e[p];
        h->pos[h->e[i].v] = i;
        i = p;
    }
    h->e[i] = x;
    h->pos[x.v] = i;
}

static void sift_down(IHeap *h, int64_t i) {
    Entry x = h->e[i];
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= h->size)
            break;
        if (c + 1 < h->size && before(h->e[c + 1], h->e[c]))
            c++;
        if (!before(h->e[c], x))
            break;
        h->e[i] = h->e[c];
        h->pos[h->e[i].v] = i;
        i = c;
    }
    h->e[i] = x;
    h->pos[x.v] = i;
}

/* One window slot: the unique vertices whose score a placement changed
 * plus their per-vertex increments, so sliding out subtracts exactly
 * what joining added. */
typedef struct {
    int64_t *verts;
    int64_t *cnts;
    int64_t size, cap;
} Slot;

static int slot_reserve(Slot *sl, int64_t need) {
    if (need <= sl->cap)
        return 0;
    int64_t cap = sl->cap * 2 > need ? sl->cap * 2 : need;
    int64_t *nv = (int64_t *)realloc(sl->verts, (size_t)cap * sizeof(int64_t));
    if (!nv)
        return -1;
    sl->verts = nv;
    int64_t *nc = (int64_t *)realloc(sl->cnts, (size_t)cap * sizeof(int64_t));
    if (!nc)
        return -1;
    sl->cnts = nc;
    sl->cap = cap;
    return 0;
}

/* Tally one occurrence of w in the affinity multiset, without a branch:
 * w is always written past the end and kept only on its first
 * occurrence, so the slot needs one spare entry beyond the unique
 * count. */
static inline void tally(Slot *sl, int64_t *delta, int64_t w) {
    sl->verts[sl->size] = w;
    sl->size += delta[w] == 0;
    delta[w]++;
}

/* The Gorder placement loop (Wei et al. SIGMOD'16, as implemented by
 * repro/reorder/gorder.py): place `start` first, then repeatedly place
 * the unplaced vertex with the highest affinity to the `window` most
 * recently placed ones.  Writes the placement order (old vertex ids in
 * placement sequence) into `order`.  Returns 0, or -1 on allocation
 * failure.
 *
 * The placement rule fixes the permutation whatever the queue: highest
 * score, lowest id among touched unplaced vertices (touched at any
 * point so far, even if the score has since decayed to zero); if there
 * are none, the lowest unplaced id.  Any exact queue whose entries never
 * understate a score implements it, so this indexed heap and the Python
 * loop's lazy heapq produce the same order. */
int32_t repro_gorder(const int64_t *out_offsets, const int32_t *out_targets,
                     const int64_t *in_offsets, const int32_t *in_sources,
                     int64_t n, int64_t window, double hub_cap, int64_t start,
                     int64_t *order) {
    int32_t rc = -1;
    int64_t *score = (int64_t *)calloc((size_t)n, sizeof(int64_t));
    int64_t *delta = (int64_t *)calloc((size_t)n, sizeof(int64_t));
    uint8_t *placed = (uint8_t *)calloc((size_t)n, sizeof(uint8_t));
    int64_t n_slots = window + 1;
    Slot *slots = (Slot *)calloc((size_t)n_slots, sizeof(Slot));
    IHeap heap = {(Entry *)malloc((size_t)n * sizeof(Entry)),
                  (int64_t *)malloc((size_t)n * sizeof(int64_t)), 0};
    if (!score || !delta || !placed || !slots || !heap.e || !heap.pos)
        goto done;
    for (int64_t i = 0; i < n; i++)
        heap.pos[i] = -1;

    int64_t slot_head = 0, slot_count = 0;
    int64_t next_unplaced = 0;
    int64_t current = start;
    for (int64_t pos = 0; pos < n; pos++) {
        placed[current] = 1;
        order[pos] = current;

        /* Affinity multiset of `current`: direct out/in neighbours plus
         * the out-lists of non-hub in-neighbours (the sibling term).  Its
         * size bounds the unique count, which never exceeds n. */
        int64_t bound = out_offsets[current + 1] - out_offsets[current] +
                        in_offsets[current + 1] - in_offsets[current];
        for (int64_t p = in_offsets[current]; p < in_offsets[current + 1]; p++) {
            int64_t u = (int64_t)in_sources[p];
            int64_t deg = out_offsets[u + 1] - out_offsets[u];
            if ((double)deg <= hub_cap)
                bound += deg;
        }
        Slot *sl = &slots[(slot_head + slot_count) % n_slots];
        sl->size = 0;
        if (slot_reserve(sl, (bound < n ? bound : n) + 1) != 0)
            goto done;
        for (int64_t p = out_offsets[current]; p < out_offsets[current + 1]; p++)
            tally(sl, delta, (int64_t)out_targets[p]);
        for (int64_t p = in_offsets[current]; p < in_offsets[current + 1]; p++) {
            int64_t u = (int64_t)in_sources[p];
            tally(sl, delta, u);
            int64_t deg = out_offsets[u + 1] - out_offsets[u];
            if ((double)deg > hub_cap)
                continue;
            for (int64_t q = out_offsets[u]; q < out_offsets[u + 1]; q++)
                tally(sl, delta, (int64_t)out_targets[q]);
        }
        for (int64_t j = 0; j < sl->size; j++) {
            int64_t w = sl->verts[j];
            sl->cnts[j] = delta[w];
            score[w] += delta[w];
            delta[w] = 0;
            if (placed[w])
                continue;
            int64_t i = heap.pos[w];
            if (i < 0) {
                i = heap.size++;
                heap.e[i].v = w;
            } else if (score[w] <= heap.e[i].key) {
                continue;
            }
            heap.e[i].key = score[w];
            sift_up(&heap, i);
        }
        slot_count++;
        if (slot_count > window) {
            Slot *old = &slots[slot_head];
            for (int64_t j = 0; j < old->size; j++)
                score[old->verts[j]] -= old->cnts[j];
            slot_head = (slot_head + 1) % n_slots;
            slot_count--;
        }

        if (pos == n - 1)
            break;

        current = -1;
        while (heap.size) {
            Entry top = heap.e[0];
            if (top.key == score[top.v]) {
                current = top.v;
                heap.pos[current] = -1;
                heap.e[0] = heap.e[--heap.size];
                if (heap.size)
                    sift_down(&heap, 0);
                break;
            }
            /* Score decayed since queueing; re-key at today's value. */
            heap.e[0].key = score[top.v];
            sift_down(&heap, 0);
        }
        if (current < 0) {
            while (placed[next_unplaced])
                next_unplaced++;
            current = next_unplaced;
        }
    }
    rc = 0;

done:
    free(score);
    free(delta);
    free(placed);
    if (slots) {
        for (int64_t i = 0; i < n_slots; i++) {
            free(slots[i].verts);
            free(slots[i].cnts);
        }
        free(slots);
    }
    free(heap.e);
    free(heap.pos);
    return rc;
}
