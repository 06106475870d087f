/* Sequential-Gibbs sweeps of the p-bit machine (eq. 10 in threshold form).
 *
 * Each replica is an independent chain, so replicas run one after another.
 * Within a sweep spin i becomes +1 when its input I_i >= tau_i, else -1; a
 * flip adds row i of J (J is symmetric, so row i is column i) times the spin
 * change to the replica's inputs.  After a sweep the energy
 * H = -1/2 s.I - 1/2 h.s + c is accumulated in double whatever T is.
 *
 * Layouts are replica-major: spins, inputs and best_spins are (R, n), taus
 * is (R, S, n), energies and best_energies are (R,), and traces, when not
 * NULL, is (R, stride) with this call's sweep t stored at column t0 + t.
 * With track == 0 only the last sweep's energy is computed and the best
 * state is left alone.
 */
#include <string.h>

#define DEFINE_SWEEPS(NAME, T)                                              \
void NAME(long n, long R, long S, const T *restrict J,                      \
          const T *restrict h, double offset, const T *restrict taus,       \
          T *restrict spins, T *restrict inputs, double *energies,          \
          T *restrict best_spins, double *best_energies, double *traces,    \
          long stride, long t0, int track)                                  \
{                                                                           \
    for (long r = 0; r < R; r++) {                                          \
        T *restrict s = spins + r * n;                                      \
        T *restrict in = inputs + r * n;                                    \
        for (long t = 0; t < S; t++) {                                      \
            const T *restrict tau = taus + (r * S + t) * n;                 \
            for (long i = 0; i < n; i++) {                                  \
                T v = in[i] >= tau[i] ? (T)1 : (T)-1;                       \
                if (v != s[i]) {                                            \
                    const T *restrict row = J + i * n;                      \
                    T d = v - s[i];                                         \
                    s[i] = v;                                               \
                    for (long k = 0; k < n; k++)                            \
                        in[k] += row[k] * d;                                \
                }                                                           \
            }                                                               \
            if (!track && t < S - 1)                                        \
                continue;                                                   \
            double si = 0.0, hs = 0.0;                                      \
            for (long i = 0; i < n; i++) {                                  \
                si += (double)s[i] * (double)in[i];                         \
                hs += (double)h[i] * (double)s[i];                          \
            }                                                               \
            double e = -0.5 * si - 0.5 * hs + offset;                       \
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
