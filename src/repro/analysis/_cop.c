/* Native tier of the batched COP engine (repro.analysis.compiled).
 *
 * Two level loops over contiguous (n_rows, n_nets) float64 rows, one row at
 * a time, reading the lowered IR's arrays as they are:
 *
 *   cop_forward   signal probabilities, gates in level-group order;
 *   cop_backward  observabilities, gates in pin-level order (levels
 *                 descending, gates ascending), pins ascending.
 *
 * Every expression repeats the floating-point operation order of the numpy
 * reference kernels (CompiledCop.signal_probabilities_batch_numpy and
 * CompiledCop.observabilities_batch_numpy), so both tiers agree bit for bit.
 * That only holds when the compiler neither contracts a*b+c into an FMA nor
 * reassociates: build with -O2 -ffp-contract=off and never -ffast-math.
 *
 * Base operations (repro.lowered): 0 = AND, 1 = OR, 2 = XOR.
 */

#include <stdint.h>

#define OP_OR 1
#define OP_XOR 2

/* probs: (n_rows, n_nets), inputs and constants already written; each gate
 * of `order` writes its output net.  A gate reads only nets of lower levels,
 * so one pass in level order is complete. */
void cop_forward(int64_t n_rows, int64_t n_nets, double *probs,
                 int64_t n_order, const int32_t *order,
                 const int32_t *gate_output, const int8_t *gate_op,
                 const uint8_t *gate_invert, const int64_t *fanin_start,
                 const int64_t *fanin_len, const int32_t *fanin_flat)
{
    for (int64_t r = 0; r < n_rows; r++) {
        double *p = probs + r * n_nets;
        for (int64_t i = 0; i < n_order; i++) {
            const int32_t g = order[i];
            const int32_t *src = fanin_flat + fanin_start[g];
            const int64_t len = fanin_len[g];
            const int op = gate_op[g];
            double acc, value;
            if (op == OP_XOR) {
                acc = 0.0;
                for (int64_t j = 0; j < len; j++) {
                    const double q = p[src[j]];
                    acc = acc * (1.0 - q) + (1.0 - acc) * q;
                }
                value = gate_invert[g] ? 1.0 - acc : acc;
            } else if (op == OP_OR) {
                acc = 1.0;
                for (int64_t j = 0; j < len; j++)
                    acc *= 1.0 - p[src[j]];
                value = gate_invert[g] ? acc : 1.0 - acc;
            } else {
                acc = 1.0;
                for (int64_t j = 0; j < len; j++)
                    acc *= p[src[j]];
                value = gate_invert[g] ? 1.0 - acc : acc;
            }
            p[gate_output[g]] = value;
        }
    }
}

/* probs: (n_rows, n_nets) signal probabilities; miss: (n_rows, n_nets),
 * 1.0 everywhere but 0.0 on primary outputs; pin_obs: (n_rows, n_pins).
 * On return miss holds 1 - observability per net.  miss[src] is updated as
 * soon as a pin is done: its source net lies on a lower level than every
 * output of the current level, so no output read later in the level sees
 * the update. */
void cop_backward(int64_t n_rows, int64_t n_nets, int64_t n_pins,
                  const double *probs, double *miss, double *pin_obs,
                  int64_t n_order, const int32_t *order,
                  const int32_t *gate_output, const int8_t *gate_op,
                  const int64_t *fanin_start, const int64_t *fanin_len,
                  const int32_t *fanin_flat, const int64_t *pin_base)
{
    for (int64_t r = 0; r < n_rows; r++) {
        const double *p = probs + r * n_nets;
        double *m = miss + r * n_nets;
        double *po = pin_obs + r * n_pins;
        for (int64_t i = 0; i < n_order; i++) {
            const int32_t g = order[i];
            const int32_t *src = fanin_flat + fanin_start[g];
            const int64_t len = fanin_len[g];
            const int op = gate_op[g];
            const double out_obs = 1.0 - m[gate_output[g]];
            double *slot = po + pin_base[g];
            for (int64_t j = 0; j < len; j++) {
                double obs;
                if (op == OP_XOR) {
                    obs = out_obs;
                } else {
                    double factor = 1.0;
                    for (int64_t k = 0; k < len; k++) {
                        if (k == j)
                            continue;
                        const double q = p[src[k]];
                        factor *= op == OP_OR ? 1.0 - q : q;
                    }
                    obs = out_obs * factor;
                }
                slot[j] = obs;
                m[src[j]] *= 1.0 - obs;
            }
        }
    }
}
