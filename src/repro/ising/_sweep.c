/* Sequential-Gibbs sweeps of the p-bit machine (eq. 10 in threshold form),
 * and the draw that feeds them.
 *
 * Each replica is an independent chain.  Within a sweep spin i becomes +1
 * when its input I_i >= tau_i, else -1; a flip adds row i of J (J is
 * symmetric, so row i is column i) times the spin change to the replica's
 * inputs.  The energy H = -1/2 s.I - 1/2 h.s + c is accumulated in double
 * whatever T is.
 *
 * The draw takes numpy's bitgen_t, a BitGenerator's C interface, and
 * consumes the stream in numpy's order.  Start spins come first, replica
 * by replica: spin k is +1 when bit 31 of the k-th next_uint32 is set,
 * else -1, which is rng.integers(0, 2) (Lemire's method at range 2) into
 * [-1, 1].  Then the noise u = next_double * 2 - 1, one (n, R) slab per
 * sweep, which is rng.random(out=) followed by *= 2 and -= 1, bit for bit.
 * It returns how many draws were exactly -1, the pole of atanh.  The
 * caller holds the generator's lock.
 *
 * The sweep derives its own thresholds.  taus holds a = atanh(u) of the
 * noise (numpy takes the atanh between the draw and the sweep); before
 * sweep t's spin loop its (n, R) slab becomes, in place, the thresholds
 * of that sweep's beta: a / -beta, except on a pure-noise sweep
 * (beta <= 0), where a >= 0 gives -inf and a < 0 gives +inf.  The test is
 * beta <= 0, so a NaN beta divides.  These are the IEEE operations numpy
 * runs for the reference scan, bit for bit; the float32 sweep rounds each
 * threshold to float at the compare, as a float32 cast of the table would.
 *
 * The loop runs in draw order: for each sweep t, for each spin i, every
 * replica r takes its decision on spin i in turn.  Each replica still sees
 * its own decisions and rank-1 adds in the same order as a chain run on
 * its own, so the order of the replicas changes no result; consecutive
 * replicas that flip spin i reuse row i of J from cache.
 *
 * Both entries take a call block (block_t) holding the fixed sizes and
 * the buffer addresses of one workspace, plus only the per-call values.
 * Layouts: spins, inputs and best_spins are replica-major (R, n); taus is
 * (chunk, n, R), the order numpy draws a (sweeps, spins, replicas) table,
 * and betas is (chunk,); energies and best_energies are (R,); traces,
 * when not NULL, is (R, stride).  A sweep call runs S <= chunk sweeps; t0
 * is the anneal's index of its first sweep: sweep t's energy lands in
 * trace column t0 + t.  With track != 0 every sweep's energy is computed
 * and the lowest kept in best_*; a call with t0 == 0 first computes the
 * start energies and seeds best_* from the start state.  With track == 0
 * only the last sweep's energy is computed and the best state is left
 * alone.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

/* numpy/random/bitgen.h */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

typedef struct {
    long n, R, chunk;
    const void *J, *h;
    double *betas, *taus;
    void *spins, *inputs;
    double *energies;
    void *best_spins;
    double *best_energies;
} block_t;
#define DEFINE_KERNELS(SUFFIX, T)                                           \
static double energy_##SUFFIX(long n, const T *restrict s,                  \
                              const T *restrict in, const T *restrict h,    \
                              double offset)                                \
{                                                                           \
    double si = 0.0, hs = 0.0;                                              \
    for (long i = 0; i < n; i++) {                                          \
        si += (double)s[i] * (double)in[i];                                 \
        hs += (double)h[i] * (double)s[i];                                  \
    }                                                                       \
    return -0.5 * si - 0.5 * hs + offset;                                   \
}                                                                           \
                                                                            \
long pbit_draw_##SUFFIX(const block_t *b, bitgen_t *g, long sweeps,         \
                        int draw_spins)                                     \
{                                                                           \
    if (draw_spins) {                                                       \
        T *restrict s = b->spins;                                           \
        for (long k = 0; k < b->R * b->n; k++)                              \
            s[k] = g->next_uint32(g->state) >> 31 ? (T)1 : (T)-1;           \
    }                                                                       \
    double *restrict u = b->taus;                                           \
    long poles = 0;                                                         \
    for (long k = 0; k < sweeps * b->n * b->R; k++) {                       \
        u[k] = g->next_double(g->state) * 2.0 - 1.0;                        \
        poles += u[k] == -1.0;                                              \
    }                                                                       \
    return poles;                                                           \
}                                                                           \
                                                                            \
void pbit_sweeps_##SUFFIX(const block_t *b, long S, double offset,          \
                          double *traces, long stride, long t0, int track)  \
{                                                                           \
    const long n = b->n, R = b->R;                                          \
    const T *restrict J = b->J;                                             \
    const T *restrict h = b->h;                                             \
    const double *restrict betas = b->betas;                                \
    double *restrict taus = b->taus;                                        \
    T *restrict spins = b->spins;                                           \
    T *restrict inputs = b->inputs;                                         \
    T *restrict best_spins = b->best_spins;                                 \
    double *energies = b->energies, *best_energies = b->best_energies;      \
    if (track && t0 == 0) {                                                 \
        for (long r = 0; r < R; r++) {                                      \
            double e = energy_##SUFFIX(n, spins + r * n, inputs + r * n,    \
                                       h, offset);                          \
            energies[r] = best_energies[r] = e;                             \
            memcpy(best_spins + r * n, spins + r * n, n * sizeof(T));       \
        }                                                                   \
    }                                                                       \
    for (long t = 0; t < S; t++) {                                          \
        double *restrict slab = taus + t * n * R;                           \
        double beta = betas[t];                                             \
        if (beta <= 0.0) {                                                  \
            for (long k = 0; k < n * R; k++)                                \
                slab[k] = slab[k] >= 0.0 ? -INFINITY : INFINITY;            \
        } else {                                                            \
            for (long k = 0; k < n * R; k++)                                \
                slab[k] = slab[k] / -beta;                                  \
        }                                                                   \
        for (long i = 0; i < n; i++) {                                      \
            const double *restrict tau = slab + i * R;                      \
            const T *restrict row = J + i * n;                              \
            for (long r = 0; r < R; r++) {                                  \
                T *restrict s = spins + r * n;                              \
                T *restrict in = inputs + r * n;                            \
                T v = in[i] >= (T)tau[r] ? (T)1 : (T)-1;                    \
                if (v != s[i]) {                                            \
                    T d = v - s[i];                                         \
                    s[i] = v;                                               \
                    for (long k = 0; k < n; k++)                            \
                        in[k] += row[k] * d;                                \
                }                                                           \
            }                                                               \
        }                                                                   \
        if (!track && t < S - 1)                                            \
            continue;                                                       \
        for (long r = 0; r < R; r++) {                                      \
            const T *restrict s = spins + r * n;                            \
            double e = energy_##SUFFIX(n, s, inputs + r * n, h, offset);    \
            energies[r] = e;                                                \
            if (traces)                                                     \
                traces[r * stride + t0 + t] = e;                            \
            if (track && e < best_energies[r]) {                            \
                best_energies[r] = e;                                       \
                memcpy(best_spins + r * n, s, n * sizeof(T));               \
            }                                                               \
        }                                                                   \
    }                                                                       \
}

DEFINE_KERNELS(f64, double)
DEFINE_KERNELS(f32, float)
