/* Sequential-Gibbs sweeps of the p-bit machine (eq. 10 in threshold form).
 *
 * Each replica is an independent chain.  Within a sweep spin i becomes +1
 * when its input I_i >= tau_i, else -1; a flip adds row i of J (J is
 * symmetric, so row i is column i) times the spin change to the replica's
 * inputs.  The energy H = -1/2 s.I - 1/2 h.s + c is accumulated in double
 * whatever T is.
 *
 * The sweep derives its own thresholds.  taus holds a = atanh(u) of the
 * noise u ~ U(-1, 1); before sweep t's spin loop its (n, R) slab becomes,
 * in place, the thresholds of that sweep's beta: a / -beta, except on a
 * pure-noise sweep (beta <= 0), where a >= 0 gives -inf and a < 0 gives
 * +inf.  The test is beta <= 0, so a NaN beta divides.  These are the
 * IEEE operations numpy runs for the reference scan, bit for bit; the
 * float32 sweep rounds each threshold to float at the compare, as a
 * float32 cast of the table would.
 *
 * The loop runs in draw order: for each sweep t, for each spin i, every
 * replica r takes its decision on spin i in turn.  Each replica still sees
 * its own decisions and rank-1 adds in the same order as a chain run on
 * its own, so the order of the replicas changes no result; consecutive
 * replicas that flip spin i reuse row i of J from cache.
 *
 * Layouts: spins, inputs and best_spins are replica-major (R, n); taus is
 * (S, n, R), the order numpy draws a (sweeps, spins, replicas) table, and
 * betas is (S,); energies and best_energies are (R,); traces, when not
 * NULL, is (R, stride).  t0 is the anneal's index of this call's first
 * sweep: sweep t's energy lands in trace column t0 + t.  With track != 0
 * every sweep's energy is computed and the lowest kept in best_*; a call
 * with t0 == 0 first computes the start energies and seeds best_* from
 * the start state.  With track == 0 only the last sweep's energy is
 * computed and the best state is left alone.
 */
#include <math.h>
#include <string.h>

#define DEFINE_SWEEPS(NAME, T)                                              \
static double NAME##_energy(long n, const T *restrict s,                    \
                            const T *restrict in, const T *restrict h,      \
                            double offset)                                  \
{                                                                           \
    double si = 0.0, hs = 0.0;                                              \
    for (long i = 0; i < n; i++) {                                          \
        si += (double)s[i] * (double)in[i];                                 \
        hs += (double)h[i] * (double)s[i];                                  \
    }                                                                       \
    return -0.5 * si - 0.5 * hs + offset;                                   \
}                                                                           \
                                                                            \
void NAME(long n, long R, long S, const T *restrict J,                      \
          const T *restrict h, double offset, const double *restrict betas, \
          double *restrict taus, T *restrict spins, T *restrict inputs,     \
          double *energies, T *restrict best_spins, double *best_energies,  \
          double *traces, long stride, long t0, int track)                  \
{                                                                           \
    if (track && t0 == 0) {                                                 \
        for (long r = 0; r < R; r++) {                                      \
            double e = NAME##_energy(n, spins + r * n, inputs + r * n, h,   \
                                     offset);                               \
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
            double e = NAME##_energy(n, s, inputs + r * n, h, offset);      \
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

DEFINE_SWEEPS(pbit_sweeps_f64, double)
DEFINE_SWEEPS(pbit_sweeps_f32, float)
