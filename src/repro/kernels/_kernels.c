/* Compiled kernels for the repro hot loops.
 *
 * Every function mirrors, operation for operation, the pure-Python
 * reference in repro/kernels/reference.py: identical traversal order,
 * identical floating-point accumulation order, identical union-find
 * rule.  That mirroring is a hard contract — the parity suite asserts
 * bit-identical flows, cuts, and codewords against the reference — so
 * any change here must be made in lockstep with reference.py.
 *
 * Built on demand by repro/kernels/native_cc.py:
 *     cc -O3 -fPIC -shared -o repro_kernels_<hash>.so _kernels.c
 * and loaded through ctypes.  Plain C99, no Python.h — the interface
 * is raw int64/double/int8/uint8 buffers so the same source could back
 * a Cython or cffi build unchanged.
 */

#include <stdint.h>
#include <float.h>
#include <math.h>

#define EPS 1e-12

/* ------------------------------------------------------------------ */
/* Dinic max flow over flat residual arc arrays                        */
/* ------------------------------------------------------------------ */

static void bfs_levels(
    int64_t n,
    const int64_t *indptr,
    const int64_t *adj,
    const int64_t *arc_head,
    const double *arc_cap,
    const double *arc_flow,
    int64_t source,
    int64_t *level,
    int64_t *queue)
{
    for (int64_t i = 0; i < n; i++) level[i] = -1;
    level[source] = 0;
    int64_t qhead = 0, qtail = 0;
    queue[qtail++] = source;
    while (qhead < qtail) {
        int64_t cur = queue[qhead++];
        for (int64_t k = indptr[cur]; k < indptr[cur + 1]; k++) {
            int64_t a = adj[k];
            int64_t head = arc_head[a];
            if (level[head] < 0 && arc_cap[a] - arc_flow[a] > EPS) {
                level[head] = level[cur] + 1;
                queue[qtail++] = head;
            }
        }
    }
}

static double blocking_flow(
    int64_t n,
    const int64_t *indptr,
    const int64_t *adj,
    const int64_t *arc_head,
    const double *arc_cap,
    double *arc_flow,
    int64_t *level,
    int64_t *iters,
    int64_t *stack,
    int64_t *path,
    int64_t source,
    int64_t sink)
{
    for (int64_t i = 0; i < n; i++) iters[i] = 0;
    double total = 0.0;
    int64_t stack_len = 0, path_len = 0;
    stack[stack_len++] = source;
    while (stack_len > 0) {
        int64_t u = stack[stack_len - 1];
        if (u == sink) {
            double push = DBL_MAX;
            for (int64_t k = 0; k < path_len; k++) {
                double residual = arc_cap[path[k]] - arc_flow[path[k]];
                if (residual < push) push = residual;
            }
            total += push;
            for (int64_t k = 0; k < path_len; k++) {
                int64_t a = path[k];
                arc_flow[a] += push;
                arc_flow[a ^ 1] -= push;
            }
            /* Retreat to just past the first arc this push saturated. */
            int64_t cut = 0;
            for (int64_t k = 0; k < path_len; k++) {
                if (arc_cap[path[k]] - arc_flow[path[k]] <= EPS) {
                    cut = k;
                    break;
                }
            }
            stack_len = cut + 1;
            path_len = cut;
            continue;
        }
        int advanced = 0;
        while (iters[u] < indptr[u + 1] - indptr[u]) {
            int64_t a = adj[indptr[u] + iters[u]];
            int64_t head = arc_head[a];
            if (arc_cap[a] - arc_flow[a] > EPS && level[head] == level[u] + 1) {
                stack[stack_len++] = head;
                path[path_len++] = a;
                advanced = 1;
                break;
            }
            iters[u]++;
        }
        if (!advanced) {
            level[u] = -1; /* dead end for the rest of this phase */
            stack_len--;
            if (path_len > 0) {
                path_len--;
                iters[stack[stack_len - 1]]++;
            }
        }
    }
    return total;
}

double repro_dinic_solve(
    int64_t n,
    const int64_t *indptr,
    const int64_t *adj,
    const int64_t *arc_head,
    const double *arc_cap,
    double *arc_flow,
    int64_t *level,
    int64_t *iters,
    int64_t *stack,
    int64_t *path,
    int64_t *queue,
    int64_t source,
    int64_t sink,
    int64_t *phases_out)
{
    double total = 0.0;
    int64_t phases = 0;
    for (;;) {
        bfs_levels(n, indptr, adj, arc_head, arc_cap, arc_flow, source,
                   level, queue);
        if (level[sink] < 0) break;
        phases++;
        total += blocking_flow(n, indptr, adj, arc_head, arc_cap, arc_flow,
                               level, iters, stack, path, source, sink);
    }
    *phases_out = phases;
    return total;
}

void repro_residual_reachable(
    int64_t n,
    const int64_t *indptr,
    const int64_t *adj,
    const int64_t *arc_head,
    const double *arc_cap,
    const double *arc_flow,
    uint8_t *seen,
    int64_t *stack,
    int64_t source)
{
    for (int64_t i = 0; i < n; i++) seen[i] = 0;
    seen[source] = 1;
    int64_t stack_len = 0;
    stack[stack_len++] = source;
    while (stack_len > 0) {
        int64_t cur = stack[--stack_len];
        for (int64_t k = indptr[cur]; k < indptr[cur + 1]; k++) {
            int64_t a = adj[k];
            int64_t head = arc_head[a];
            if (!seen[head] && arc_cap[a] - arc_flow[a] > EPS) {
                seen[head] = 1;
                stack[stack_len++] = head;
            }
        }
    }
}

/* ------------------------------------------------------------------ */
/* Weighted contraction over an edge list + union-find parent vector   */
/* ------------------------------------------------------------------ */

static int64_t uf_find(int64_t *parent, int64_t i)
{
    while (parent[i] != i) {
        parent[i] = parent[parent[i]];
        i = parent[i];
    }
    return i;
}

int64_t repro_contract_to(
    int64_t m,
    const int64_t *tails,
    const int64_t *heads,
    const double *weights,
    int64_t *parent,
    int64_t n,
    int64_t size,
    int64_t target,
    const double *uniforms,
    int64_t *used_out)
{
    int64_t used = 0;
    int64_t current = size;
    while (current > target) {
        double total = 0.0;
        for (int64_t e = 0; e < m; e++) {
            if (uf_find(parent, tails[e]) != uf_find(parent, heads[e]))
                total += weights[e];
        }
        if (total <= 0.0) break;
        double pick = uniforms[used] * total;
        used++;
        double acc = 0.0;
        int64_t chosen = -1;
        for (int64_t e = 0; e < m; e++) {
            int64_t ra = uf_find(parent, tails[e]);
            int64_t rb = uf_find(parent, heads[e]);
            if (ra == rb) continue;
            chosen = e;
            acc += weights[e];
            if (pick <= acc) break;
        }
        int64_t ra = uf_find(parent, tails[chosen]);
        int64_t rb = uf_find(parent, heads[chosen]);
        parent[rb] = ra;
        current--;
    }
    for (int64_t i = 0; i < n; i++) parent[i] = uf_find(parent, i);
    *used_out = used;
    return current;
}

/* ------------------------------------------------------------------ */
/* Batched Karger contraction runs with neighbour-dict semantics       */
/* ------------------------------------------------------------------ */

/* One addend of builtin sum() over floats: plain, or Neumaier's. */
static void sum_add(double *total, double *c, double x, int64_t compensated)
{
    if (!compensated) {
        *total += x;
        return;
    }
    double t = *total + x;
    if (fabs(*total) >= fabs(x))
        *c += (*total - t) + x;
    else
        *c += (x - t) + *total;
    *total = t;
}

static double sum_done(double total, double c, int64_t compensated)
{
    if (compensated && c != 0.0 && isfinite(c)) total += c;
    return total;
}

int64_t repro_karger_runs(
    int64_t n,
    const int64_t *indptr,
    const int64_t *indices,
    const double *weights,
    int64_t runs,
    const double *uniforms, /* runs x (n - 2), one per merge */
    int64_t compensated,
    double *w,              /* n x n scratch: w[x*n+y] = weight of {x, y} */
    uint8_t *listed,        /* n x n scratch: y is in x's neighbour list */
    int64_t *order,         /* n x n scratch: x's list in insertion order;
                               merged-away entries stay and are skipped */
    int64_t *len,           /* n scratch: list lengths */
    int64_t *owner,         /* n scratch: super-node of each node */
    double *values,         /* runs out */
    uint8_t *sides)         /* runs x n out */
{
    int64_t steps = n > 2 ? n - 2 : 0;
    for (int64_t r = 0; r < runs; r++) {
        for (int64_t i = 0; i < n * n; i++) listed[i] = 0;
        for (int64_t x = 0; x < n; x++) {
            owner[x] = x;
            len[x] = 0;
            for (int64_t k = indptr[x]; k < indptr[x + 1]; k++) {
                int64_t y = indices[k];
                w[x * n + y] = weights[k]; /* a repeated y updates, as a dict */
                if (!listed[x * n + y]) {
                    listed[x * n + y] = 1;
                    order[x * n + len[x]++] = y;
                }
            }
        }
        for (int64_t step = 0; step < steps; step++) {
            /* Live edges {u, v} at their earlier endpoint u, in list order. */
            double total = 0.0, c = 0.0;
            int64_t edges = 0;
            for (int64_t u = 0; u < n; u++) {
                if (owner[u] != u) continue;
                for (int64_t k = 0; k < len[u]; k++) {
                    int64_t v = order[u * n + k];
                    if (v <= u || owner[v] != v) continue;
                    sum_add(&total, &c, w[u * n + v], compensated);
                    edges++;
                }
            }
            if (edges == 0) return r;
            total = sum_done(total, c, compensated);
            double pick = total * uniforms[r * steps + step];
            double acc = 0.0;
            int64_t cu = -1, cv = -1, found = 0;
            for (int64_t u = 0; u < n && !found; u++) {
                if (owner[u] != u) continue;
                for (int64_t k = 0; k < len[u]; k++) {
                    int64_t v = order[u * n + k];
                    if (v <= u || owner[v] != v) continue;
                    acc += w[u * n + v];
                    cu = u;
                    cv = v;
                    if (pick <= acc) {
                        found = 1;
                        break;
                    }
                }
            }
            /* Merge cv into cu. */
            for (int64_t k = 0; k < len[cv]; k++) {
                int64_t x = order[cv * n + k];
                if (x == cu || owner[x] != x) continue;
                double merged = (listed[cu * n + x] ? w[cu * n + x] : 0.0)
                                + w[cv * n + x];
                if (!listed[cu * n + x]) {
                    listed[cu * n + x] = 1;
                    order[cu * n + len[cu]++] = x;
                }
                w[cu * n + x] = merged;
                if (!listed[x * n + cu]) {
                    listed[x * n + cu] = 1;
                    order[x * n + len[x]++] = cu;
                }
                w[x * n + cu] = merged;
            }
            for (int64_t i = 0; i < n; i++) {
                if (owner[i] == cv) owner[i] = cu;
            }
        }
        double value = 0.0, c = 0.0;
        for (int64_t k = 0; n > 0 && k < len[0]; k++) {
            int64_t y = order[k];
            if (owner[y] == y) sum_add(&value, &c, w[y], compensated);
        }
        values[r] = sum_done(value, c, compensated);
        for (int64_t i = 0; i < n; i++) sides[r * n + i] = owner[i] == 0;
    }
    return runs;
}

/* ------------------------------------------------------------------ */
/* Stoer–Wagner global min cut over a dense symmetric weight matrix    */
/* ------------------------------------------------------------------ */

double repro_stoer_wagner(
    int64_t n,
    double *w,        /* n x n row-major; rows merged in place */
    double *key,      /* n scratch: weight into this phase's set */
    uint8_t *merged,  /* n scratch: 1 once merged into another node */
    uint8_t *in_set,  /* n scratch: 1 once in this phase's set */
    int64_t *owner,   /* n scratch: node each original node merged into */
    uint8_t *side)    /* n out: the min cut's side */
{
    double best = HUGE_VAL;
    for (int64_t i = 0; i < n; i++) {
        merged[i] = 0;
        owner[i] = i;
        side[i] = 0;
    }
    for (int64_t remaining = n; remaining > 1; remaining--) {
        int64_t start = 0;
        while (merged[start]) start++;
        const double *row = w + start * n;
        for (int64_t v = 0; v < n; v++) {
            in_set[v] = merged[v];
            key[v] = row[v];
        }
        in_set[start] = 1;
        int64_t s = start, t = start;
        double cut = 0.0;
        for (int64_t step = 1; step < remaining; step++) {
            int64_t chosen = -1;
            for (int64_t v = 0; v < n; v++) {
                if (!in_set[v] && (chosen < 0 || key[v] > key[chosen]))
                    chosen = v;
            }
            cut = key[chosen];
            in_set[chosen] = 1;
            row = w + chosen * n;
            for (int64_t v = 0; v < n; v++) {
                if (!in_set[v]) key[v] += row[v];
            }
            s = t;
            t = chosen;
        }
        if (cut < best) {
            best = cut;
            for (int64_t i = 0; i < n; i++) side[i] = owner[i] == t;
        }
        double *rs = w + s * n;
        const double *rt = w + t * n;
        for (int64_t v = 0; v < n; v++) {
            if (merged[v] || v == s || v == t) continue;
            rs[v] += rt[v];
            w[v * n + s] = rs[v];
        }
        merged[t] = 1;
        for (int64_t i = 0; i < n; i++) {
            if (owner[i] == t) owner[i] = s;
        }
    }
    return best;
}

/* ------------------------------------------------------------------ */
/* Lemma 3.2 Hadamard products (blocked sign-flip kernels)             */
/* ------------------------------------------------------------------ */

void repro_had_combine_many(
    int64_t side,
    const int8_t *h,
    const int64_t *coeff, /* B x side x side */
    int64_t batch,
    int64_t *tmp,         /* side x side scratch */
    int64_t *out)         /* B x side*side */
{
    for (int64_t b = 0; b < batch; b++) {
        const int64_t *c = coeff + b * side * side;
        int64_t *dst = out + b * side * side;
        /* tmp = C H  (H entries are ±1: adds and subtracts only) */
        for (int64_t i = 0; i < side; i++) {
            for (int64_t j = 0; j < side; j++) {
                int64_t acc = 0;
                for (int64_t k = 0; k < side; k++) {
                    int64_t v = c[i * side + k];
                    acc += (h[k * side + j] > 0) ? v : -v;
                }
                tmp[i * side + j] = acc;
            }
        }
        /* dst = H^T tmp */
        for (int64_t i = 0; i < side; i++) {
            for (int64_t j = 0; j < side; j++) {
                int64_t acc = 0;
                for (int64_t k = 0; k < side; k++) {
                    int64_t v = tmp[k * side + j];
                    acc += (h[k * side + i] > 0) ? v : -v;
                }
                dst[i * side + j] = acc;
            }
        }
    }
}

void repro_had_row_products(
    int64_t side,
    const int8_t *h,
    const double *x,  /* side*side, row-major X */
    double *tmp,      /* side x side scratch */
    double *out)      /* side x side: out[i][j] = <x, H_i (x) H_j> */
{
    /* tmp = X H^T : tmp[i][j] = sum_k X[i][k] * H[j][k] */
    for (int64_t i = 0; i < side; i++) {
        for (int64_t j = 0; j < side; j++) {
            double acc = 0.0;
            for (int64_t k = 0; k < side; k++) {
                double v = x[i * side + k];
                acc += (h[j * side + k] > 0) ? v : -v;
            }
            tmp[i * side + j] = acc;
        }
    }
    /* out = H tmp : out[i][j] = sum_k H[i][k] * tmp[k][j] */
    for (int64_t i = 0; i < side; i++) {
        for (int64_t j = 0; j < side; j++) {
            double acc = 0.0;
            for (int64_t k = 0; k < side; k++) {
                double v = tmp[k * side + j];
                acc += (h[i * side + k] > 0) ? v : -v;
            }
            out[i * side + j] = acc;
        }
    }
}

double repro_had_decode_one(
    int64_t side,
    const int8_t *h,
    const double *x,
    int64_t i,
    int64_t j)
{
    double acc = 0.0;
    for (int64_t k = 0; k < side; k++) {
        double inner = 0.0;
        for (int64_t l = 0; l < side; l++) {
            double v = x[k * side + l];
            inner += (h[j * side + l] > 0) ? v : -v;
        }
        acc += (h[i * side + k] > 0) ? inner : -inner;
    }
    return acc;
}
