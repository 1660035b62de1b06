/* Native tier of the word-domain engine (repro.simulation.compiled).
 *
 * Two loops over 64-pattern uint64 words, reading the lowered IR's arrays as
 * they are (see repro.lowered):
 *
 *   sim_words      good-machine simulation: every gate in level-group order
 *                  writes its output row of the (n_nets, n_words) matrix;
 *   fault_words    per-fault, event-driven fault propagation (PPSFP,
 *                  Waicukauski et al., 1985).  The fault is written at its
 *                  site, then only the readers of nets whose faulty words
 *                  differ from the good ones are evaluated, level by level;
 *                  a gate whose faulty words equal the good ones stops the
 *                  event there.
 *
 * Both are exact: bitwise AND/OR/XOR and inversion give the same words in
 * any evaluation order, so they agree bit for bit with the numpy reference
 * (CompiledCircuit.simulate_words_numpy / fault_batch_detection_numpy).
 *
 * Every buffer that changes during a call is allocated by that call and
 * freed before it returns, so concurrent calls (cold service jobs run on
 * threads while ctypes has released the interpreter lock) share nothing
 * mutable.
 *
 * Base operations (repro.lowered): 0 = AND, 1 = OR, 2 = XOR.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define OP_OR 1
#define OP_XOR 2

/* dst[w] = op over the rows rows[0..len) of word w, inverted if asked. */
static void eval_gate(int64_t n_words, uint64_t *dst, int op, int invert,
                      int64_t len, const uint64_t *const *rows)
{
    memcpy(dst, rows[0], (size_t)n_words * sizeof(uint64_t));
    for (int64_t j = 1; j < len; j++) {
        const uint64_t *src = rows[j];
        if (op == OP_XOR)
            for (int64_t w = 0; w < n_words; w++)
                dst[w] ^= src[w];
        else if (op == OP_OR)
            for (int64_t w = 0; w < n_words; w++)
                dst[w] |= src[w];
        else
            for (int64_t w = 0; w < n_words; w++)
                dst[w] &= src[w];
    }
    if (invert)
        for (int64_t w = 0; w < n_words; w++)
            dst[w] = ~dst[w];
}

/* values: (n_nets, n_words), inputs and constants already written; each gate
 * of `order` (level-group order) writes its output row.  Returns 0, or -1
 * when the row-pointer buffer cannot be allocated. */
int sim_words(int64_t n_words, uint64_t *values, int64_t max_arity,
              int64_t n_order, const int32_t *order,
              const int32_t *gate_output, const int8_t *gate_op,
              const uint8_t *gate_invert, const int64_t *fanin_start,
              const int64_t *fanin_len, const int32_t *fanin_flat)
{
    const uint64_t **rows = malloc((size_t)(max_arity > 0 ? max_arity : 1) * sizeof(*rows));
    if (rows == NULL)
        return -1;
    for (int64_t i = 0; i < n_order; i++) {
        const int32_t g = order[i];
        const int32_t *src = fanin_flat + fanin_start[g];
        const int64_t len = fanin_len[g];
        for (int64_t j = 0; j < len; j++)
            rows[j] = values + (int64_t)src[j] * n_words;
        eval_gate(n_words, values + (int64_t)gate_output[g] * n_words,
                  gate_op[g], gate_invert[g], len, rows);
    }
    free(rows);
    return 0;
}

/* Per-call scratch of fault_words. */
struct scratch {
    int32_t *net_mark;   /* fault ordinal + 1 when the net's words differ */
    int32_t *net_slot;   /* its row in `pool` */
    int32_t *gate_mark;  /* fault ordinal + 1 when the gate is queued */
    int64_t *fill;       /* queued gates per level */
    int32_t *queue;      /* level buckets: level L owns [level_start[L], level_start[L+1]) */
    uint64_t *pool;      /* faulty words of the differing nets */
    int64_t pool_rows;
    int64_t used;
    const uint64_t **rows;
};

static void scratch_free(struct scratch *s)
{
    free(s->net_mark);
    free(s->net_slot);
    free(s->gate_mark);
    free(s->fill);
    free(s->queue);
    free(s->pool);
    free(s->rows);
}

/* Row `used` of the pool, grown first if needed; NULL when out of memory. */
static uint64_t *next_row(struct scratch *s, int64_t n_words)
{
    if (s->used == s->pool_rows) {
        const int64_t rows = s->pool_rows ? 2 * s->pool_rows : 256;
        uint64_t *pool = realloc(s->pool, (size_t)(rows * n_words) * sizeof(uint64_t));
        if (pool == NULL)
            return NULL;
        s->pool = pool;
        s->pool_rows = rows;
    }
    return s->pool + s->used * n_words;
}

/* Faults are (net, gate, stuck): gate < 0 is a stem fault on `net`, else a
 * branch fault on every pin of `gate` that reads `net`.  The caller checks
 * that every net and gate is in range.
 *
 * detection (n_faults, n_words), if not NULL: the OR over the primary
 * outputs of faulty XOR good, ANDed with valid_mask (if not NULL).
 * out_words (n_outputs, n_faults, n_words), if not NULL: the faulty values
 * of every entry of `outputs`.
 *
 * fanout_start/fanout_gate is the CSR of the distinct reader gates of every
 * net; level_start (n_levels + 1) sizes one queue bucket per logic level
 * (the number of gates on it); gate_level is the level of every gate.
 * Returns 0, or -1 when scratch memory cannot be allocated. */
int fault_words(int64_t n_words, const uint64_t *good,
                int64_t n_faults, const int32_t *fault_net,
                const int32_t *fault_gate, const uint8_t *fault_stuck,
                const uint64_t *valid_mask, uint64_t *detection,
                uint64_t *out_words, int64_t n_outputs, const int64_t *outputs,
                const uint8_t *is_output,
                int64_t n_nets, int64_t n_gates, int64_t max_arity,
                const int32_t *gate_output, const int8_t *gate_op,
                const uint8_t *gate_invert, const int64_t *fanin_start,
                const int64_t *fanin_len, const int32_t *fanin_flat,
                const int64_t *fanout_start, const int32_t *fanout_gate,
                int64_t n_levels, const int64_t *level_start,
                const int32_t *gate_level)
{
    struct scratch s = {0};
    s.net_mark = calloc((size_t)(n_nets > 0 ? n_nets : 1), sizeof(int32_t));
    s.net_slot = malloc((size_t)(n_nets > 0 ? n_nets : 1) * sizeof(int32_t));
    s.gate_mark = calloc((size_t)(n_gates > 0 ? n_gates : 1), sizeof(int32_t));
    s.fill = calloc((size_t)(n_levels > 0 ? n_levels : 1), sizeof(int64_t));
    s.queue = malloc((size_t)(n_gates > 0 ? n_gates : 1) * sizeof(int32_t));
    s.rows = malloc((size_t)(max_arity > 0 ? max_arity : 1) * sizeof(*s.rows));
    if (!s.net_mark || !s.net_slot || !s.gate_mark || !s.fill || !s.queue || !s.rows) {
        scratch_free(&s);
        return -1;
    }
    uint64_t *faulty = malloc((size_t)(n_words > 0 ? n_words : 1) * sizeof(uint64_t));
    if (faulty == NULL) {
        scratch_free(&s);
        return -1;
    }

    for (int64_t f = 0; f < n_faults; f++) {
        const int32_t mark = (int32_t)(f + 1);
        uint64_t *det = detection ? detection + f * n_words : NULL;
        int64_t lo = n_levels, hi = -1;
        s.used = 0;
        if (det)
            memset(det, 0, (size_t)n_words * sizeof(uint64_t));

        /* The fault site: the faulty net (stem) or the faulty gate's output
         * (branch), whose words go to `site` if they differ from good. */
        int32_t site;
        uint64_t *row = next_row(&s, n_words);
        if (row == NULL)
            goto oom;
        const uint64_t stuck = fault_stuck[f] ? ~(uint64_t)0 : 0;
        if (fault_gate[f] < 0) {
            site = fault_net[f];
            for (int64_t w = 0; w < n_words; w++)
                row[w] = stuck;
        } else {
            const int32_t g = fault_gate[f];
            const int32_t *src = fanin_flat + fanin_start[g];
            const int64_t len = fanin_len[g];
            for (int64_t w = 0; w < n_words; w++)
                faulty[w] = stuck;
            for (int64_t j = 0; j < len; j++)
                s.rows[j] = src[j] == fault_net[f] ? faulty : good + (int64_t)src[j] * n_words;
            site = gate_output[g];
            if (len == 0) /* a constant gate reads no pin: nothing to force */
                memcpy(row, good + (int64_t)site * n_words, (size_t)n_words * sizeof(uint64_t));
            else
                eval_gate(n_words, row, gate_op[g], gate_invert[g], len, s.rows);
        }

        for (int32_t net = site;;) {
            /* Commit `row` as the faulty words of `net` if they differ. */
            const uint64_t *ref = good + (int64_t)net * n_words;
            uint64_t differs = 0;
            for (int64_t w = 0; w < n_words; w++)
                differs |= row[w] ^ ref[w];
            if (differs) {
                s.net_mark[net] = mark;
                s.net_slot[net] = (int32_t)s.used++;
                if (det && is_output[net])
                    for (int64_t w = 0; w < n_words; w++)
                        det[w] |= row[w] ^ ref[w];
                for (int64_t k = fanout_start[net]; k < fanout_start[net + 1]; k++) {
                    const int32_t g = fanout_gate[k];
                    if (s.gate_mark[g] == mark)
                        continue;
                    s.gate_mark[g] = mark;
                    const int32_t level = gate_level[g];
                    s.queue[level_start[level] + s.fill[level]++] = g;
                    if (level < lo)
                        lo = level;
                    if (level > hi)
                        hi = level;
                }
            }
            /* Next queued gate, lowest level first: a reader sits on a
             * higher level than every net it reads, so a level's bucket is
             * complete once the levels below it are done. */
            while (lo <= hi && s.fill[lo] == 0)
                lo++;
            if (lo > hi)
                break;
            const int32_t g = s.queue[level_start[lo] + --s.fill[lo]];
            const int32_t *src = fanin_flat + fanin_start[g];
            const int64_t len = fanin_len[g];
            row = next_row(&s, n_words);
            if (row == NULL)
                goto oom;
            for (int64_t j = 0; j < len; j++) {
                const int32_t in = src[j];
                s.rows[j] = s.net_mark[in] == mark ? s.pool + (int64_t)s.net_slot[in] * n_words
                                                   : good + (int64_t)in * n_words;
            }
            net = gate_output[g];
            eval_gate(n_words, row, gate_op[g], gate_invert[g], len, s.rows);
        }

        if (det && valid_mask)
            for (int64_t w = 0; w < n_words; w++)
                det[w] &= valid_mask[w];
        if (out_words)
            for (int64_t o = 0; o < n_outputs; o++) {
                const int64_t net = outputs[o];
                const uint64_t *src = s.net_mark[net] == mark
                                          ? s.pool + (int64_t)s.net_slot[net] * n_words
                                          : good + net * n_words;
                memcpy(out_words + (o * n_faults + f) * n_words, src,
                       (size_t)n_words * sizeof(uint64_t));
            }
    }
    free(faulty);
    scratch_free(&s);
    return 0;
oom:
    free(faulty);
    scratch_free(&s);
    return -1;
}
