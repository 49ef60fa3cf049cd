/* Event-loop replay kernel of the compiled-graph simulator.
 *
 * This is the C twin of the pure-Python loop in repro/simulator/fastpath.py:
 * one general multi-node event loop that also covers the single-node case.
 * Every float operation, comparison and event-ordering rule matches the
 * reference loop (repro/simulator/execution.py) exactly:
 *
 *  - events are ordered by (time, sequence number) — a total order, so any
 *    heap layout pops the identical event sequence;
 *  - all per-task float terms arrive pre-folded (the replay arrays built by
 *    SimGraphCache.replay_arrays with the reference association order); the
 *    loop only selects, adds and compares IEEE doubles in the same order the
 *    Python loop does;
 *  - fault Bernoullis are consumed from a pre-drawn uniform block (the same
 *    chunked generator sequence the Python loop buffers), with the identical
 *    conditional draw-cursor discipline.
 *
 * One event per core release.  The reference pushes up to three events when
 * it starts a task, with consecutive sequence numbers: SPARE_FREE and FREE at
 * now + core_busy, then COMPLETE at the finish time.  Events with equal times
 * and consecutive sequence numbers always pop back to back, since nothing can
 * sort between them, so this loop pushes them as one event whose kind is a
 * set of flags: READY is 0; a release carries FREE, plus SPARE when the task
 * took a spare, plus COMPLETE when finish == now + core_busy (exact double
 * equality: every unreplicated task, and a replicated one that ran without a
 * spare and needed no recovery).  Otherwise COMPLETE travels as its own event,
 * pushed right after the release.  A popped release does what the reference
 * does for the events it merges, in their order: release the spare, release
 * the core and try_start the node, then release the successors.
 *
 * try_start runs only after READY and after a release.  After an event that
 * only completes a task it cannot start anything: the node's last try_start
 * left it with no free core or an empty ready queue, and a completion changes
 * neither (successors enter a ready queue only when their READY event pops).
 *
 * So a task pushes at most three events — its READY, its release and a
 * separate completion — and the event heap never holds more than 3n.
 *
 * Compiled with -ffp-contract=off so no multiply-add contraction can change
 * results (the loop performs no multiplications, but the flag makes the
 * guarantee explicit).  Built lazily by repro.simulator.backend via the
 * system C compiler; the pure-Python path remains the reference.
 */

#include <stdlib.h>
#include <string.h>

typedef long long i64;

/* Event flags, matching fastpath.py; an event's tag is task << 3 | flags. */
#define EV_READY 0
#define EV_FREE 1
#define EV_SPARE 2
#define EV_COMPLETE 4

/* Return codes. */
#define OK 0
#define ERR_ALLOC 1
#define ERR_HEAP_OVERFLOW 2
#define ERR_DRAWS_EXHAUSTED 3

/* One fault Bernoulli off the lane's uniform block (exhausting the block
 * is a draw-bound bug: fail the call). */
#define DRAW(p, out) do { \
        if (dpos >= n_uniforms) { rc = ERR_DRAWS_EXHAUSTED; goto done; } \
        (out) = uniforms[dpos++] < (p); \
    } while (0)

/* ------------------------------------------------------------------ */
/* (time, seq) binary min-heap of flat events.  Sifts move a hole.     */

typedef struct {
    double time;
    i64 seq;
    i64 tag;
} Event;

typedef struct {
    Event *ev;
    i64 len;
    i64 cap;
} Heap;

static int ev_less(const Event *a, const Event *b) {
    if (a->time < b->time) return 1;
    if (a->time > b->time) return 0;
    return a->seq < b->seq;
}

static int heap_push(Heap *h, double time, i64 seq, i64 tag) {
    if (h->len >= h->cap) return 0;
    Event e = {time, seq, tag};
    i64 pos = h->len++;
    while (pos > 0) {
        i64 parent = (pos - 1) / 2;
        if (!ev_less(&e, &h->ev[parent])) break;
        h->ev[pos] = h->ev[parent];
        pos = parent;
    }
    h->ev[pos] = e;
    return 1;
}

static Event heap_pop(Heap *h) {
    Event top = h->ev[0];
    i64 len = --h->len;
    if (len == 0) return top;
    Event last = h->ev[len];
    i64 pos = 0, child;
    while ((child = 2 * pos + 1) < len) {
        if (child + 1 < len && ev_less(&h->ev[child + 1], &h->ev[child])) child++;
        if (!ev_less(&h->ev[child], &last)) break;
        h->ev[pos] = h->ev[child];
        pos = child;
    }
    h->ev[pos] = last;
    return top;
}

/* Plain int min-heap (the per-node ready queues hold dense task indices). */

static void iheap_push(i64 *heap, i64 *len, i64 value) {
    i64 pos = (*len)++;
    while (pos > 0) {
        i64 parent = (pos - 1) / 2;
        if (heap[parent] <= value) break;
        heap[pos] = heap[parent];
        pos = parent;
    }
    heap[pos] = value;
}

static i64 iheap_pop(i64 *heap, i64 *len) {
    i64 top = heap[0];
    i64 n = --(*len);
    if (n == 0) return top;
    i64 last = heap[n];
    i64 pos = 0, child;
    while ((child = 2 * pos + 1) < n) {
        if (child + 1 < n && heap[child + 1] < heap[child]) child++;
        if (heap[child] >= last) break;
        heap[pos] = heap[child];
        pos = child;
    }
    heap[pos] = last;
    return top;
}

/* ------------------------------------------------------------------ */

/* Replay one compiled graph on one machine; see fastpath.py for the
 * reference semantics this mirrors bit for bit. */
int simulate_kernel(
    i64 n, i64 n_nodes, i64 cores_per_node, i64 spares_per_node,
    double net_latency, double net_bandwidth,
    int contention, int collect,
    double p_crash, double p_sdc, double decision_s,
    const double *dur, const double *mem,
    const double *core_busy0, const double *rep_core_busy,
    const double *completion_spare, const double *core_busy_nospare,
    const double *completion_nospare, const double *overhead_rep,
    const double *restore_dur, const double *restore_dur_vote,
    const i64 *succ_indptr, const i64 *succ_indices, const double *edge_bytes,
    const i64 *in_degree, const i64 *node_of, const unsigned char *is_replicated,
    const double *uniforms, i64 n_uniforms,
    double *out_scalars, /* makespan, work, overhead, recovery, max_node_mem */
    i64 *out_counts,     /* crashes, sdcs, replicated, n_started, draws */
    double *start_at, double *finish_at, double *overhead_at, double *recovery_at)
{
    const int crash_mid = (0.0 < p_crash) && (p_crash < 1.0);
    const int crash_hi = p_crash >= 1.0;
    const int sdc_mid = (0.0 < p_sdc) && (p_sdc < 1.0);
    const int sdc_hi = p_sdc >= 1.0;

    int rc = OK;
    i64 dpos = 0;

    i64 crashes = 0, sdcs = 0, replicated_count = 0, n_started = 0;
    double total_overhead = 0.0, total_recovery = 0.0, total_work = 0.0;
    double makespan = 0.0;

    /* Workspace.  The event heap never holds more than 3n events (see the
     * header; + 1 keeps an empty graph's allocation nonzero): its overflow
     * check only guards against kernel bugs. */
    Heap heap;
    heap.cap = 3 * n + 1;
    heap.ev = (Event *)malloc((size_t)heap.cap * sizeof(Event));
    heap.len = 0;
    i64 *pending = (i64 *)malloc((size_t)(n > 0 ? n : 1) * sizeof(i64));
    double *earliest = (double *)malloc((size_t)(n > 0 ? n : 1) * sizeof(double));
    i64 *free_cores = (i64 *)malloc((size_t)n_nodes * sizeof(i64));
    i64 *free_spares = (i64 *)malloc((size_t)n_nodes * sizeof(i64));
    double *node_mem = (double *)malloc((size_t)n_nodes * sizeof(double));
    /* Per-node ready heaps share one backing array: each task enters its
     * node's queue exactly once, so node slices sized by task count suffice. */
    i64 *node_count = (i64 *)malloc((size_t)n_nodes * sizeof(i64));
    i64 *ready_off = (i64 *)malloc((size_t)n_nodes * sizeof(i64));
    i64 *ready_len = (i64 *)malloc((size_t)n_nodes * sizeof(i64));
    i64 *ready = (i64 *)malloc((size_t)(n > 0 ? n : 1) * sizeof(i64));

    if (!heap.ev || !pending || !earliest || !free_cores || !free_spares ||
        !node_mem || !node_count || !ready_off || !ready_len || !ready) {
        rc = ERR_ALLOC;
        goto done;
    }

    memcpy(pending, in_degree, (size_t)n * sizeof(i64));
    for (i64 i = 0; i < n; i++) earliest[i] = 0.0;
    for (i64 nid = 0; nid < n_nodes; nid++) {
        free_cores[nid] = cores_per_node;
        free_spares[nid] = spares_per_node;
        node_mem[nid] = 0.0;
        node_count[nid] = 0;
        ready_len[nid] = 0;
    }
    for (i64 i = 0; i < n; i++) node_count[node_of[i]]++;
    i64 off = 0;
    for (i64 nid = 0; nid < n_nodes; nid++) {
        ready_off[nid] = off;
        off += node_count[nid];
    }

    i64 seq = 0;
    for (i64 i = 0; i < n; i++) {
        if (pending[i] == 0) {
            if (!heap_push(&heap, 0.0, seq++, i << 3 | EV_READY)) { rc = ERR_HEAP_OVERFLOW; goto done; }
        }
    }

    while (heap.len > 0) {
        Event ev = heap_pop(&heap);
        double now = ev.time;
        i64 i = ev.tag >> 3;
        int flags = (int)(ev.tag & 7);
        i64 nid = node_of[i];
        if (flags == EV_READY) {
            iheap_push(ready + ready_off[nid], &ready_len[nid], i);
        } else if (flags & EV_FREE) {
            if (flags & EV_SPARE) free_spares[nid]++;
            free_cores[nid]++;
        }

        /* try_start(nid): drain the node's ready heap while cores are free. */
        while (flags != EV_COMPLETE && free_cores[nid] > 0 && ready_len[nid] > 0) {
            i64 t = iheap_pop(ready + ready_off[nid], &ready_len[nid]);
            free_cores[nid]--;
            int use_spare = 0;
            int crash0, crash1 = 0, sdc0, sdc1 = 0;
            double core_busy, completion, recovery, overhead;
            if (is_replicated[t]) {
                replicated_count++;
                if (free_spares[nid] > 0) {
                    free_spares[nid]--;
                    use_spare = 1;
                    core_busy = rep_core_busy[t];
                    completion = completion_spare[t];
                } else {
                    core_busy = core_busy_nospare[t];
                    completion = completion_nospare[t];
                }
                crash0 = crash1 = crash_hi;
                if (crash_mid) { DRAW(p_crash, crash0); DRAW(p_crash, crash1); }
                sdc0 = !crash0 && sdc_hi;
                sdc1 = !crash1 && sdc_hi;
                if (sdc_mid && !crash0) DRAW(p_sdc, sdc0);
                if (sdc_mid && !crash1) DRAW(p_sdc, sdc1);
                crashes += crash0 + crash1;
                sdcs += sdc0 + sdc1;
                if (crash0 && crash1) {
                    recovery = restore_dur[t];
                    completion += recovery;
                    total_recovery += recovery;
                } else if ((sdc0 != sdc1) && !(crash0 || crash1)) {
                    recovery = restore_dur_vote[t];
                    completion += recovery;
                    total_recovery += recovery;
                } else {
                    recovery = 0.0;
                }
                overhead = overhead_rep[t];
            } else {
                crash0 = crash_hi;
                if (crash_mid) DRAW(p_crash, crash0);
                sdc0 = !crash0 && sdc_hi;
                if (sdc_mid && !crash0) DRAW(p_sdc, sdc0);
                crashes += crash0;
                sdcs += sdc0;
                if (crash0) {
                    recovery = dur[t];
                    core_busy = core_busy0[t] + recovery;
                    total_recovery += recovery;
                } else {
                    recovery = 0.0;
                    core_busy = core_busy0[t];
                }
                completion = core_busy;
                overhead = decision_s;
            }

            total_overhead += overhead;
            total_work += dur[t];
            if (contention) node_mem[nid] += mem[t];
            double finish = now + completion;
            if (finish > makespan) makespan = finish;
            if (collect) {
                start_at[t] = now;
                finish_at[t] = finish;
                overhead_at[t] = overhead;
                recovery_at[t] = recovery;
            }
            n_started++;
            double release = now + core_busy;
            i64 tag = t << 3 | EV_FREE | (use_spare ? EV_SPARE : 0);
            if (finish == release) tag |= EV_COMPLETE;
            if (!heap_push(&heap, release, seq++, tag)) { rc = ERR_HEAP_OVERFLOW; goto done; }
            if (finish != release) {
                if (!heap_push(&heap, finish, seq++, t << 3 | EV_COMPLETE)) { rc = ERR_HEAP_OVERFLOW; goto done; }
            }
        }

        if (flags & EV_COMPLETE) {
            for (i64 k = succ_indptr[i]; k < succ_indptr[i + 1]; k++) {
                i64 s = succ_indices[k];
                double delay = 0.0;
                if (node_of[s] != nid) {
                    delay = net_latency + edge_bytes[k] / net_bandwidth;
                }
                double arrival = now + delay;
                if (arrival > earliest[s]) earliest[s] = arrival;
                pending[s]--;
                if (pending[s] == 0) {
                    double at = now > earliest[s] ? now : earliest[s];
                    if (!heap_push(&heap, at, seq++, s << 3 | EV_READY)) { rc = ERR_HEAP_OVERFLOW; goto done; }
                }
            }
        }
    }

    double max_node_mem = 0.0;
    for (i64 nid = 0; nid < n_nodes; nid++) {
        if (node_mem[nid] > max_node_mem) max_node_mem = node_mem[nid];
    }
    out_scalars[0] = makespan;
    out_scalars[1] = total_work;
    out_scalars[2] = total_overhead;
    out_scalars[3] = total_recovery;
    out_scalars[4] = max_node_mem;
    out_counts[0] = crashes;
    out_counts[1] = sdcs;
    out_counts[2] = replicated_count;
    out_counts[3] = n_started;
    out_counts[4] = dpos;

done:
    free(heap.ev);
    free(pending); free(earliest); free(free_cores); free(free_spares);
    free(node_mem); free(node_count); free(ready_off); free(ready_len); free(ready);
    return rc;
}

/* Replay a whole seed batch: lane j consumes uniforms row j and writes its
 * outputs at lane offsets.  One call amortises the Python->C transition over
 * the batch. */
int simulate_kernel_batch(
    i64 n_lanes,
    i64 n, i64 n_nodes, i64 cores_per_node, i64 spares_per_node,
    double net_latency, double net_bandwidth,
    int contention, int collect,
    double p_crash, double p_sdc, double decision_s,
    const double *dur, const double *mem,
    const double *core_busy0, const double *rep_core_busy,
    const double *completion_spare, const double *core_busy_nospare,
    const double *completion_nospare, const double *overhead_rep,
    const double *restore_dur, const double *restore_dur_vote,
    const i64 *succ_indptr, const i64 *succ_indices, const double *edge_bytes,
    const i64 *in_degree, const i64 *node_of, const unsigned char *is_replicated,
    const double *uniforms, i64 n_uniforms, /* n_lanes rows of n_uniforms */
    double *out_scalars, /* n_lanes x 5 */
    i64 *out_counts,     /* n_lanes x 5 */
    double *start_at, double *finish_at, double *overhead_at, double *recovery_at /* n_lanes x n */)
{
    for (i64 lane = 0; lane < n_lanes; lane++) {
        int rc = simulate_kernel(
            n, n_nodes, cores_per_node, spares_per_node,
            net_latency, net_bandwidth, contention, collect,
            p_crash, p_sdc, decision_s,
            dur, mem, core_busy0, rep_core_busy, completion_spare,
            core_busy_nospare, completion_nospare, overhead_rep,
            restore_dur, restore_dur_vote,
            succ_indptr, succ_indices, edge_bytes, in_degree, node_of,
            is_replicated,
            uniforms + lane * n_uniforms, n_uniforms,
            out_scalars + lane * 5, out_counts + lane * 5,
            collect ? start_at + lane * n : start_at,
            collect ? finish_at + lane * n : finish_at,
            collect ? overhead_at + lane * n : overhead_at,
            collect ? recovery_at + lane * n : recovery_at);
        if (rc != OK) return rc;
    }
    return OK;
}
