/* Fast-path graph kernels.
 *
 * Exact C ports of the two structural primitives every reordering
 * technique sits on, and of the per-round loops of the PageRank, Radii
 * and PageRank-Delta plans, each verified bit-identical to its numpy
 * reference by the equivalence suite (tests/graph/test_fastgraph.py)
 * and the plan pins (tests/apps/test_plan_pinned.py); any behavioural
 * change here must keep that property (or change both implementations
 * together).
 *
 *   repro_relabel    — permutation relabel: regenerate the dual CSR of a
 *                      graph under a vertex permutation in O(E), no
 *                      sorts.  The numpy reference expands the edge
 *                      array (np.repeat + copy), applies the mapping and
 *                      stable-argsorts twice (by new source, then by new
 *                      target); because each new source corresponds to
 *                      exactly one old vertex, the stable by-source
 *                      order is reproduced by scattering each old
 *                      vertex's edge block (within-vertex order
 *                      preserved) into the slot range its new id owns,
 *                      with offsets prefix-summed from permuted degree
 *                      counts.  The in-CSR then falls out of one
 *                      counting pass over the new out-CSR (see below).
 *   repro_build_csr  — dual-CSR build from parallel (src, dst[, weight])
 *                      edge arrays: a stable counting-sort placement
 *                      replacing both argsorts of _build_dual_csr.  The
 *                      out-CSR scatter visits edges in input order, so
 *                      ties on src keep insertion order exactly like
 *                      np.argsort(src, kind="stable"); the in-CSR is
 *                      derived from the out-CSR edge order (walk new
 *                      sources ascending, scatter by target), which is
 *                      precisely the stable argsort of out_targets the
 *                      reference performs, keeping the canonical-
 *                      representation guarantee.  The edge arrays are
 *                      read with a stride (from_edges passes the columns
 *                      of its (E, 2) array in place), and the first
 *                      counting pass range-checks every endpoint before
 *                      anything is scattered through it.
 *   repro_pull_sum   — one PageRank round: a float64 sum per vertex over
 *                      its in-CSR slice.  The reference is
 *                      np.bincount(dst_index, weights=w[in_sources]),
 *                      which adds weight i to out[dst_index[i]] for
 *                      ascending i, starting from 0.0.  dst_index is
 *                      sorted, so each vertex receives exactly the same
 *                      additions in the same order when its slice is
 *                      summed left to right from 0.0.
 *   repro_pull_or    — one Radii round: the same loop with a uint64 OR
 *                      (np.bitwise_or.at), exact in any order.
 *   repro_push_sum   — one PageRank-Delta round: adds w[s] to
 *                      out[out_targets[e]] over the out-edges of the
 *                      active sources in ascending id order.  The masked
 *                      reference bincount keeps edge order, which is
 *                      ascending by source, so every target again sees
 *                      the same additions in the same order.
 *
 *                      None of the three loops multiplies, so no FMA
 *                      contraction can change a result; the build flags
 *                      (repro/_compile.py BASE_CFLAGS) carry no
 *                      -ffast-math, so no addition is reassociated.
 *                      None builds the per-edge index arrays the
 *                      references allocate every round.
 *
 * Compiled on demand by repro/_compile.py with the system C compiler
 * into a shared library and driven through ctypes.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Derive the in-CSR from a finished out-CSR: walking sources in
 * ascending order and scattering by target is the stable counting sort
 * of out_targets, so in_sources[in_offsets[t]:in_offsets[t+1]] lists
 * t's in-neighbours in out-CSR edge order — byte-identical to
 * out_src[np.argsort(out_targets, kind="stable")].  in_offsets must
 * already hold the prefix-summed in-degree counts; `cursor` is n
 * scratch slots.  out_weights/in_weights may be NULL together. */
static void in_csr_from_out(const int64_t *out_offsets,
                            const int32_t *out_targets,
                            const double *out_weights, int64_t n,
                            const int64_t *in_offsets, int32_t *in_sources,
                            double *in_weights, int64_t *cursor) {
    memcpy(cursor, in_offsets, (size_t)n * sizeof(int64_t));
    if (out_weights) {
        for (int64_t u = 0; u < n; u++) {
            int64_t end = out_offsets[u + 1];
            for (int64_t p = out_offsets[u]; p < end; p++) {
                int64_t q = cursor[out_targets[p]]++;
                in_sources[q] = (int32_t)u;
                in_weights[q] = out_weights[p];
            }
        }
    } else {
        for (int64_t u = 0; u < n; u++) {
            int64_t end = out_offsets[u + 1];
            for (int64_t p = out_offsets[u]; p < end; p++)
                in_sources[cursor[out_targets[p]]++] = (int32_t)u;
        }
    }
}

/* Prefix-sum `counts[0:n]` (clobbered) into `offsets[0:n+1]`. */
static void prefix_sum(const int64_t *counts, int64_t n, int64_t *offsets) {
    int64_t sum = 0;
    offsets[0] = 0;
    for (int64_t v = 0; v < n; v++) {
        sum += counts[v];
        offsets[v + 1] = sum;
    }
}

/* Relabel the dual CSR under `mapping` (old id v -> new id mapping[v]).
 * The mapping must be a permutation of [0, n) — validated by the Python
 * caller.  Output arrays must hold n+1 offsets / num_edges endpoints;
 * weight pointers may be NULL (both or neither).  Returns 0, or -1 on
 * allocation failure. */
int32_t repro_relabel(const int64_t *out_offsets, const int32_t *out_targets,
                      const double *out_weights, const int32_t *mapping,
                      int64_t n, int64_t *new_out_offsets,
                      int32_t *new_out_targets, double *new_out_weights,
                      int64_t *new_in_offsets, int32_t *new_in_sources,
                      double *new_in_weights) {
    if (n == 0) {
        new_out_offsets[0] = 0;
        new_in_offsets[0] = 0;
        return 0;
    }
    int64_t *scratch = (int64_t *)malloc((size_t)(2 * n) * sizeof(int64_t));
    if (!scratch)
        return -1;
    int64_t *counts = scratch, *cursor = scratch + n;

    /* Out-CSR offsets: new vertex mapping[v] inherits v's degree. */
    for (int64_t v = 0; v < n; v++)
        counts[mapping[v]] = out_offsets[v + 1] - out_offsets[v];
    prefix_sum(counts, n, new_out_offsets);

    /* Scatter each old vertex's edge block into its new slot range,
     * applying the mapping to targets on the way through — this fuses
     * the reference's edge_array expansion, fancy-indexed remap and
     * stable by-source sort into one pass. */
    if (out_weights) {
        for (int64_t v = 0; v < n; v++) {
            int64_t pos = new_out_offsets[mapping[v]];
            int64_t end = out_offsets[v + 1];
            for (int64_t p = out_offsets[v]; p < end; p++, pos++) {
                new_out_targets[pos] = mapping[out_targets[p]];
                new_out_weights[pos] = out_weights[p];
            }
        }
    } else {
        for (int64_t v = 0; v < n; v++) {
            int64_t pos = new_out_offsets[mapping[v]];
            int64_t end = out_offsets[v + 1];
            for (int64_t p = out_offsets[v]; p < end; p++, pos++)
                new_out_targets[pos] = mapping[out_targets[p]];
        }
    }

    /* In-CSR offsets: count new targets, then the canonical derivation
     * from the new out-CSR. */
    memset(counts, 0, (size_t)n * sizeof(int64_t));
    int64_t num_edges = out_offsets[n];
    for (int64_t e = 0; e < num_edges; e++)
        counts[new_out_targets[e]]++;
    prefix_sum(counts, n, new_in_offsets);
    in_csr_from_out(new_out_offsets, new_out_targets, new_out_weights, n,
                    new_in_offsets, new_in_sources, new_in_weights, cursor);
    free(scratch);
    return 0;
}

/* Build the dual CSR from parallel edge arrays: edge e runs from
 * src[e * src_stride] to dst[e * dst_stride], so the two columns of an
 * (E, 2) array are read in place with stride 2.  The first pass checks
 * every endpoint before it is scattered through and counts both degree
 * sequences.  Weight pointers may be NULL (all three or none).  Returns
 * 0, -1 on allocation failure, or -2 if an endpoint lies outside
 * [0, n) (outputs then undefined). */
int32_t repro_build_csr(const int64_t *src, int64_t src_stride,
                        const int64_t *dst, int64_t dst_stride,
                        const double *weights, int64_t num_edges, int64_t n,
                        int64_t *out_offsets, int32_t *out_targets,
                        double *out_weights, int64_t *in_offsets,
                        int32_t *in_sources, double *in_weights) {
    if (n == 0) {
        out_offsets[0] = 0;
        in_offsets[0] = 0;
        return num_edges ? -2 : 0;
    }
    int64_t *scratch = (int64_t *)calloc((size_t)(3 * n), sizeof(int64_t));
    if (!scratch)
        return -1;
    int64_t *counts = scratch, *cursor = scratch + n, *in_counts = cursor + n;

    for (int64_t e = 0; e < num_edges; e++) {
        uint64_t u = (uint64_t)src[e * src_stride];
        uint64_t v = (uint64_t)dst[e * dst_stride];
        if ((u >= (uint64_t)n) | (v >= (uint64_t)n)) {
            free(scratch);
            return -2;
        }
        counts[u]++;
        in_counts[v]++;
    }
    prefix_sum(counts, n, out_offsets);
    prefix_sum(in_counts, n, in_offsets);

    /* Stable scatter by source: input order is preserved within each
     * source, matching np.argsort(src, kind="stable"). */
    memcpy(cursor, out_offsets, (size_t)n * sizeof(int64_t));
    if (weights) {
        for (int64_t e = 0; e < num_edges; e++) {
            int64_t pos = cursor[src[e * src_stride]]++;
            out_targets[pos] = (int32_t)dst[e * dst_stride];
            out_weights[pos] = weights[e];
        }
    } else {
        for (int64_t e = 0; e < num_edges; e++)
            out_targets[cursor[src[e * src_stride]]++] =
                (int32_t)dst[e * dst_stride];
    }

    in_csr_from_out(out_offsets, out_targets, out_weights, n, in_offsets,
                    in_sources, in_weights, cursor);
    free(scratch);
    return 0;
}

/* ------------------------------------------------------- plan kernels
 *
 * One application round each, walked straight over the CSR.  Ids and
 * offsets are validated by the Python caller; nothing here allocates. */

/* out[v] = sum of values[u] over v's in-neighbours u, added in in-CSR
 * order starting from 0.0 (the order np.bincount uses on the sorted
 * per-edge target index). */
void repro_pull_sum(const int64_t *offsets, const int32_t *sources,
                    const double *values, int64_t n, double *out) {
    for (int64_t v = 0; v < n; v++) {
        double sum = 0.0;
        int64_t end = offsets[v + 1];
        for (int64_t e = offsets[v]; e < end; e++)
            sum += values[sources[e]];
        out[v] = sum;
    }
}

/* out[v] = OR of values[u] over v's in-neighbours u. */
void repro_pull_or(const int64_t *offsets, const int32_t *sources,
                   const uint64_t *values, int64_t n, uint64_t *out) {
    for (int64_t v = 0; v < n; v++) {
        uint64_t acc = 0;
        int64_t end = offsets[v + 1];
        for (int64_t e = offsets[v]; e < end; e++)
            acc |= values[sources[e]];
        out[v] = acc;
    }
}

/* out[t] += values[s] for every out-edge (s, t) of the k active sources,
 * which must be strictly increasing: that visits the kept edges in edge
 * order, as the masked np.bincount does.  `out` arrives zeroed. */
void repro_push_sum(const int64_t *offsets, const int32_t *targets,
                    const double *values, const int64_t *active, int64_t k,
                    double *out) {
    for (int64_t i = 0; i < k; i++) {
        int64_t s = active[i];
        double w = values[s];
        int64_t end = offsets[s + 1];
        for (int64_t e = offsets[s]; e < end; e++)
            out[targets[e]] += w;
    }
}
