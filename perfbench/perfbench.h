/**
 * @file
 * Shared pieces of the repository benchmark (perfbench): the run
 * configuration, the result every workload fills, percentile helpers,
 * the correlation/output checkers, host facts, the ot kernel probes
 * and the trace ledger.
 *
 * The benchmark drives the library only through its public API: it
 * times calls into `ot`, `svc`, `ppml` and `infer`, reads the
 * `metrics::` registry, and (in a traced run) reads the spans the
 * library already records through `trace::exportChromeTrace()`.
 */

#ifndef PERFBENCH_PERFBENCH_H
#define PERFBENCH_PERFBENCH_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/bitvec.h"
#include "common/block.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "ot/ferret_params.h"

namespace ironman::svc {
class CotServer;
}

namespace perfbench {

using ironman::BitVec;
using ironman::Block;

/** Command-line settings of one run. */
struct RunConfig
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string traceFile; ///< where a traced run writes its export
};

struct Metric
{
    double value = 0;
    std::string unit;
};

/**
 * What one run reports. An untraced run fills the end-to-end metrics,
 * a traced run the per-layer ones; both count every checked operation.
 */
struct RunResult
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    int threadsUsed = 0;
    std::map<std::string, Metric> metrics;

    void
    set(const std::string &name, double value, const char *unit)
    {
        metrics[name] = Metric{value, unit};
    }

    /** One checked operation; @p ok false counts it as failed. */
    void
    check(bool ok)
    {
        ++attempted;
        if (!ok)
            ++failed;
    }
};

RunResult runOte(const RunConfig &cfg);
RunResult runChurn(const RunConfig &cfg);
RunResult runInfer(const RunConfig &cfg);

// ---------------------------------------------------------------------------
// Timing and statistics
// ---------------------------------------------------------------------------

/** Monotonic milliseconds. */
inline double
nowMs()
{
    using namespace std::chrono;
    return duration<double, std::milli>(
               steady_clock::now().time_since_epoch())
        .count();
}

/** Linear-interpolated quantile @p q in [0, 1]; 0 for no samples. */
double quantile(std::vector<double> v, double q);

inline double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/**
 * Peak resident set of this process (MiB) since the last
 * resetPeakRss(), which also hands freed heap back to the system so
 * one round's peak does not carry the earlier rounds' leftovers.
 */
double peakRssMib();
void resetPeakRss();

/** The `cpu` line of /proc/stat (user nice system idle ... steal). */
std::vector<double> cpuTimes();

/** Share of CPU time (%) the hypervisor gave to other guests since
 * @p since, a cpuTimes() reading. */
double stealPctSince(const std::vector<double> &since);

/** Counters of the `net` and `svc` layers, read from the registry. */
struct LayerCounters
{
    static constexpr const char *kNames[] = {
        "net_bytes_sent_total",        "net_turns_total",
        "svc_engine_checkouts_total",  "svc_engine_warm_hits_total",
        "svc_engine_built_total",      "svc_reservoir_refills_total",
        "svc_reservoir_stall_us_total", "svc_operator_wait_us_total",
    };
    static constexpr size_t kCount = sizeof(kNames) / sizeof(kNames[0]);
    double v[kCount] = {};

    static LayerCounters
    now()
    {
        LayerCounters c;
        for (size_t i = 0; i < kCount; ++i)
            c.v[i] = double(ironman::metrics::counter(kNames[i]).value());
        return c;
    }

    LayerCounters
    operator-(const LayerCounters &o) const
    {
        LayerCounters d;
        for (size_t i = 0; i < kCount; ++i)
            d.v[i] = v[i] - o.v[i];
        return d;
    }

    LayerCounters &
    operator+=(const LayerCounters &o)
    {
        for (size_t i = 0; i < kCount; ++i)
            v[i] += o.v[i];
        return *this;
    }

    double bytes() const { return v[0]; }
    double turns() const { return v[1]; }
    double checkouts() const { return v[2]; }
    double warmHits() const { return v[3]; }
    double built() const { return v[4]; }
    double refills() const { return v[5]; }
    double stallUs() const { return v[6]; }
    double operatorWaitUs() const { return v[7]; }
};

/**
 * Untraced runs split their measured time into this many rounds, each
 * on a fresh daemon and session. Where the threads of one session land
 * on the cores, and what other guests of the host run meanwhile, moves
 * one round's speed by several percent, and only ever slows it; so
 * every speed and latency is reported as the fast quartile over rounds
 * (see fastQuartile), which stands for the rounds nothing disturbed.
 */
constexpr int kRounds = 10;

/**
 * The quartile of the faster rounds: the upper quartile of a figure
 * where higher is better, the lower quartile where lower is better. A
 * quarter of the rounds may be slowed arbitrarily without moving it
 * past the next-faster round.
 */
inline double
fastQuartile(const std::vector<double> &v, bool higherIsBetter)
{
    return quantile(v, higherIsBetter ? 0.75 : 0.25);
}

inline int
roundsOf(const RunConfig &cfg)
{
    return cfg.trace ? 1 : kRounds;
}

/**
 * The measured window of one session. Untraced, it is one stretch.
 * Traced, it is four alternating untraced/traced blocks (U T U T), so
 * the trace overhead is measured against neighbouring untraced time
 * and the rings end holding the last traced block. Index 1 of each
 * array belongs to the traced blocks.
 */
struct Window
{
    std::vector<double> latMs[2];
    double wallMs[2] = {};
    LayerCounters tracedCounters; ///< summed over the traced blocks

    /** @p phase(ms, traced) runs one block of closed-loop operations. */
    template <typename Phase>
    void
    run(double seconds, bool trace, Phase &&phase)
    {
        const int blocks = trace ? 4 : 1;
        for (int b = 0; b < blocks; ++b) {
            const bool traced = b % 2 == 1;
            ironman::trace::setEnabled(traced);
            const LayerCounters c0 = LayerCounters::now();
            const double t0 = nowMs();
            phase(seconds * 1e3 / blocks, traced);
            wallMs[traced] += nowMs() - t0;
            if (traced)
                tracedCounters += LayerCounters::now() - c0;
        }
        ironman::trace::setEnabled(false);
    }

    /** Traced over untraced median latency, minus one. */
    double
    traceOverhead() const
    {
        const double u = median(latMs[0]);
        return u > 0 ? median(latMs[1]) / u - 1 : 0;
    }
};

/** The end-to-end figures of an untraced run, gathered per round. */
struct RoundFigures
{
    std::vector<double> setupS, openMs, rssMib;
    std::vector<double> otMots, opsPerS, p50;
    std::vector<double> roundStart; ///< cpuTimes() as the round began

    /** Call as a round starts, before its daemon exists. */
    void
    beginRound()
    {
        resetPeakRss();
        roundStart = cpuTimes();
    }

    /** One round's window: @p ops operations delivering @p cots COTs. */
    void
    addRound(const Window &w, double ops, double cots)
    {
        rssMib.push_back(peakRssMib());
        otMots.push_back(cots / w.wallMs[0] / 1e3);
        opsPerS.push_back(ops / w.wallMs[0] * 1e3);
        p50.push_back(median(w.latMs[0]));
        std::fprintf(stderr,
                     "perfbench: round %zu: %.2f ops/s, p50 %.3f ms, "
                     "steal %.1f%%\n",
                     opsPerS.size(), opsPerS.back(), p50.back(),
                     stealPctSince(roundStart));
    }

    /**
     * The end-to-end metrics; a traced run reports only the open time,
     * as a per-layer figure.
     */
    void
    report(bool traced, RunResult &res) const
    {
        if (traced) {
            res.set("svc.session_open_ms_p50", median(openMs), "ms");
            return;
        }
        res.set("setup_s", median(setupS), "s");
        res.set("peak_rss_mib", median(rssMib), "MiB");
        res.set("ot_mots", fastQuartile(otMots, true), "MOT/s");
        res.set("ops_per_s", fastQuartile(opsPerS, true), "1/s");
        res.set("op_ms_p50", fastQuartile(p50, false), "ms");
    }
};

/** A span the benchmark records around one of its calls. */
inline void
benchSpan(bool traced, const char *name, double t0_ms, double t1_ms)
{
    if (traced)
        ironman::trace::emitSpan(name, "bench", uint64_t(t0_ms * 1e3),
                                 uint64_t((t1_ms - t0_ms) * 1e3));
}

// ---------------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------------

/** One COT: t = q ^ choice * delta. */
inline bool
correlationHolds(const Block &q, const Block &t, bool choice,
                 const Block &delta)
{
    return t == (choice ? q ^ delta : q);
}

/** Every index of one extension's output; true iff all hold. */
bool allCorrelationsHold(const Block *q, const Block *t,
                         const BitVec &choice, const Block &delta,
                         size_t n);

/** @p count distinct sorted indices below @p n drawn from @p seed. */
std::vector<uint32_t> sampleIndices(uint64_t seed, size_t n,
                                    size_t count);

// ---------------------------------------------------------------------------
// Host facts and ot kernels
// ---------------------------------------------------------------------------

/**
 * One JSON object: nproc, CPU, caches, threads used, build, the LPN
 * kernel and prefetch the library chose, and `steal_pct`, the share of
 * CPU time the hypervisor gave to other guests since @p cpu_at_start
 * (cpuTimes() at process start) — a run measured while neighbours
 * took the cores reads slow for reasons outside the code.
 */
std::string hostFactsJson(int threads_used,
                          const std::vector<double> &cpu_at_start);

/** TSC ticks per second (calibrated once against the steady clock). */
double ticksPerSecond();

/**
 * Per-kernel costs at the workload's exact parameter shape, active
 * kernel: `ot.lpn.cyc_per_row`, `ot.lpn_bits.cyc_per_row`,
 * `ot.lpn.bytes_per_row` (computed), `ot.ggm.cyc_per_leaf`,
 * `ot.crhf.cyc_per_hash`, `ot.tape_build_ms`, and
 * `ot.copy_out_ms_per_ext` (a timed copy of one extension's n output
 * blocks, the engine's unspanned bootstrap + hand-off).
 */
void measureOtKernels(const ironman::ot::FerretParams &p, int threads,
                      RunResult &out);

// ---------------------------------------------------------------------------
// Trace ledger
// ---------------------------------------------------------------------------

/** One `ph:"X"` span (or instant, dur 0) of a Chrome trace export. */
struct TraceSpan
{
    std::string name;
    uint64_t t0 = 0; ///< us
    uint64_t t1 = 0; ///< us
    uint32_t tid = 0;
    uint32_t tag = 0;
    uint64_t bytes = 0;
};

struct Trace
{
    std::vector<TraceSpan> spans;
    /** Earliest retained end stamp per thread: rings overwrite, so
     * only intervals after this stamp are complete on that thread. */
    std::map<uint32_t, uint64_t> ringStart;

    /** Spans named @p name on @p tid (any thread when tid == 0). */
    std::vector<const TraceSpan *> find(const char *name,
                                        uint32_t tid = 0) const;
    /** Spans whose name starts with @p prefix, likewise. */
    std::vector<const TraceSpan *> findPrefix(const char *prefix,
                                              uint32_t tid = 0) const;
    bool covers(uint32_t tid, uint64_t t) const;
};

Trace parseChromeTrace(const std::string &doc);

/**
 * The library's trace export of this process, also written to
 * cfg.traceFile when one is named (chrome://tracing or Perfetto open
 * it; the benchmark's own spans are the `bench` category).
 */
std::string exportTrace(const RunConfig &cfg);

/** Sorted, disjoint intervals. */
using Intervals = std::vector<std::pair<uint64_t, uint64_t>>;

Intervals unionOf(const std::vector<const TraceSpan *> &spans);
/** Merge two interval sets into one sorted, disjoint set. */
Intervals unionOf(const Intervals &a, const Intervals &b);
/** Where the thread @p tid blocked on the wire (read_frame, flush). */
Intervals wireWait(const Trace &tr, uint32_t tid);
Intervals intersect(const Intervals &a, const Intervals &b);
Intervals subtract(const Intervals &a, const Intervals &b);
Intervals clip(const Intervals &a, uint64_t lo, uint64_t hi);
uint64_t lengthOf(const Intervals &a);

/**
 * The extension ledger over the @p walls (one span per extension as
 * the caller saw it) on their threads: wire wait (`read_frame`,
 * `flush`), SPCOT (`spcot_*`) and LPN (`lpn_*`) self time, the output
 * hand-off @p copy_ms (not spanned by the engine, so it comes from
 * the copy probe), and the remainder. Only extensions that carry
 * engine phase spans (the library samples them) and lie inside the
 * retained ring window count. All figures are means per extension.
 */
struct ExtLedger
{
    size_t sampled = 0;
    double wallMs = 0;
    double spcotMs = 0;
    double lpnMs = 0;
    double wireMs = 0;
    double copyMs = 0;
    double unattributedMs = 0;
};

ExtLedger extensionLedger(const Trace &tr,
                          const std::vector<const TraceSpan *> &walls,
                          double copy_ms);

/**
 * The `ot` extension metrics every workload reports: the client-side
 * ledger @p led and the server engines' phase means, plus the
 * `svc` pool and `trace` overhead figures of the whole run @p run.
 */
void reportExtensionLayers(RunResult &res, const ExtLedger &led,
                           double server_spcot_ms, double server_lpn_ms,
                           const LayerCounters &run, const Window &w);

/**
 * Wait (up to 2 s) until @p server has no session left and every engine
 * is back in its pool. A client's connect can return before the
 * server's session has checked out its engine, so only an ended
 * session guarantees the next one finds that engine idle.
 */
void waitSessionsEnded(ironman::svc::CotServer &server);

/**
 * Mean SPCOT and LPN phase time (ms) per extension of a daemon's
 * engines, from their stats() ledgers, once its sessions have ended.
 */
void serverPhases(ironman::svc::CotServer &server,
                  const ironman::ot::FerretParams &p, double *spcot_ms,
                  double *lpn_ms);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_H
