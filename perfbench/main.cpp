/**
 * @file
 * perfbench: run one workload, check every output, print every metric.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--trace-file PATH]   traced run: keep the Chrome trace
 *   perfbench --list-metrics     the declared metrics, as JSON
 *   perfbench --selftest         the checkers' own tests
 *
 * stdout ends with one JSON line:
 *   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
 * carrying the end-to-end metrics (--trace 0) or the per-layer ones
 * (--trace 1). The line before it is the host facts of this process.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <regex>
#include <set>
#include <string>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "common/rng.h"
#include "common/thread_pool.h"
#include "ot/lpn.h"
#include "ppml/mlp_runner.h"
#include "perfbench.h"

namespace perfbench {

namespace {

enum WorkloadBit : unsigned
{
    kOte = 1,
    kChurn = 2,
    kInfer = 4,
    kAll = 7,
};

struct MetricDecl
{
    const char *name;
    const char *unit;
    bool endToEnd;
    bool higherIsBetter;
    /** Workloads that exercise the layer; on others it reads 0. */
    unsigned workloads;
};

// The single list of metrics; BENCHMARK.json mirrors it (checked by
// perfbench/test_perfbench.py). Every end-to-end metric applies to
// every workload: "op" is one extension on the COT workloads and one
// batch-1 request (one image) on infer-lan-d8.
constexpr MetricDecl kMetrics[] = {
    {"setup_s", "s", true, false, kAll},
    {"peak_rss_mib", "MiB", true, false, kAll},
    {"ok_ratio", "ratio", true, true, kAll},
    {"ot_mots", "MOT/s", true, true, kAll},
    {"ops_per_s", "1/s", true, true, kAll},
    {"op_ms_p50", "ms", true, false, kAll},

    {"ot.lpn.cyc_per_row", "cyc/row", false, false, kAll},
    {"ot.lpn_bits.cyc_per_row", "cyc/row", false, false, kAll},
    {"ot.lpn.bytes_per_row", "B/row", false, false, kAll},
    {"ot.ggm.cyc_per_leaf", "cyc/leaf", false, false, kAll},
    {"ot.crhf.cyc_per_hash", "cyc/hash", false, false, kAll},
    {"ot.tape_build_ms", "ms", false, false, kAll},
    {"ot.copy_out_ms_per_ext", "ms/ext", false, false, kAll},
    {"ot.spcot_ms_per_ext", "ms/ext", false, false, kAll},
    {"ot.lpn_ms_per_ext", "ms/ext", false, false, kAll},
    {"ot.server_spcot_ms_per_ext", "ms/ext", false, false, kAll},
    {"ot.server_lpn_ms_per_ext", "ms/ext", false, false, kAll},
    {"ot.ledger_ext_ms", "ms/ext", false, false, kAll},
    {"ot.ledger_exts", "count", false, true, kAll},
    {"ot.unattributed_ms_per_ext", "ms/ext", false, false, kAll},

    {"net.bytes_per_ext", "B/ext", false, false, kAll},
    {"net.turns_per_ext", "count/ext", false, false, kAll},
    {"net.read_wait_ms_per_ext", "ms/ext", false, false, kAll},
    {"net.read_wait_ms_per_req", "ms/req", false, false, kInfer},

    {"svc.engine_warm_hit_ratio", "ratio", false, true, kAll},
    {"svc.engines_built", "count", false, false, kAll},
    {"svc.ext_ms_p90", "ms/ext", false, false, kAll},
    {"svc.session_open_ms_p50", "ms", false, false, kAll},
    {"svc.reservoir_stall_ms_per_img", "ms/img", false, false, kInfer},
    {"svc.operator_wait_ms_per_img", "ms/img", false, false, kInfer},
    {"svc.reservoir_refills_per_s", "1/s", false, true, kInfer},
    {"svc.supply_wait_ms_per_req", "ms/req", false, false, kInfer},

    {"ppml.dense_ms_per_img", "ms/img", false, false, kInfer},
    {"ppml.relu_ms_per_img", "ms/img", false, false, kInfer},
    {"ppml.and_ms_per_img", "ms/img", false, false, kInfer},
    {"ppml.ot_batch_ms_per_img", "ms/img", false, false, kInfer},
    {"ppml.compute_ms_per_req", "ms/req", false, false, kInfer},
    {"ppml.rounds_per_img", "count/img", false, false, kInfer},
    {"ppml.cots_per_img", "count/img", false, false, kInfer},

    {"infer.bytes_per_img", "B/img", false, false, kInfer},
    {"infer.submit_us_p50", "us/req", false, false, kInfer},
    {"infer.commit_ms_p50", "ms/group", false, false, kInfer},
    {"infer.queue_ms_p50", "ms/req", false, false, kInfer},
    {"infer.req_ms_p99", "ms", false, false, kInfer},
    {"infer.ledger_req_ms", "ms/req", false, false, kInfer},
    {"infer.ledger_reqs", "count", false, true, kInfer},
    {"infer.unattributed_ms_per_req", "ms/req", false, false, kInfer},

    {"trace.overhead_ratio", "ratio", false, false, kAll},
};

struct Workload
{
    const char *name;
    unsigned bit;
    RunResult (*run)(const RunConfig &);
};

constexpr Workload kWorkloads[] = {
    {"ote-2p20", kOte, runOte},
    {"cot-tiny-churn", kChurn, runChurn},
    {"infer-lan-d8", kInfer, runInfer},
};

/** Largest share of an operation's wall time the ledger may leave
 * unexplained in a traced run. */
constexpr double kClosureBound = 0.05;

void
listMetrics()
{
    std::printf("[");
    bool first = true;
    for (const MetricDecl &m : kMetrics) {
        std::printf("%s\n{\"name\":\"%s\",\"unit\":\"%s\",\"kind\":\"%s\","
                    "\"better\":\"%s\",\"workloads\":[",
                    first ? "" : ",", m.name, m.unit,
                    m.endToEnd ? "end_to_end" : "per_layer",
                    m.higherIsBetter ? "higher" : "lower");
        bool wfirst = true;
        for (const Workload &w : kWorkloads)
            if (m.workloads & w.bit) {
                std::printf("%s\"%s\"", wfirst ? "" : ",", w.name);
                wfirst = false;
            }
        std::printf("]}");
        first = false;
    }
    std::printf("\n]\n");
}

int
selftest()
{
    int failures = 0;
    auto expect = [&](bool ok, const char *what) {
        std::printf("selftest: %-60s %s\n", what, ok ? "ok" : "FAILED");
        failures += !ok;
    };

    // The correlation checker flags one flipped bit in its own copy.
    ironman::Rng rng(7);
    const size_t n = 4096;
    const Block delta = rng.nextBlock();
    const std::vector<Block> q = rng.nextBlocks(n);
    BitVec choice(n);
    std::vector<Block> t(n);
    for (size_t i = 0; i < n; ++i) {
        choice.set(i, (rng.nextBlock().lo & 1) != 0);
        t[i] = choice.get(i) ? q[i] ^ delta : q[i];
    }
    expect(allCorrelationsHold(q.data(), t.data(), choice, delta, n),
           "correct correlations pass");
    std::vector<Block> t_flip = t;
    t_flip[n / 3].hi ^= uint64_t(1) << 17;
    expect(!allCorrelationsHold(q.data(), t_flip.data(), choice, delta, n),
           "one flipped bit of t is flagged");
    BitVec choice_flip = choice;
    choice_flip.flip(n - 1);
    expect(!allCorrelationsHold(q.data(), t.data(), choice_flip, delta, n),
           "one flipped choice bit is flagged");
    expect(!correlationHolds(q[5], t[5], choice.get(5),
                             delta ^ Block(0, 1)),
           "a wrong delta is flagged (sampled check)");

    // The output check compares reconstructed outputs exactly, so one
    // flipped bit in a copy of an output share changes the answer.
    const std::vector<int64_t> values = {5, -7, 1234, -1, 0, 99};
    std::vector<uint64_t> s0, s1;
    ironman::Rng share_rng(11);
    ironman::ppml::shareMlpValues(share_rng, 32, values, &s0, &s1);
    expect(ironman::ppml::reconstructMlpValues(32, s0, s1) == values,
           "correct output shares reconstruct the reference");
    s1[2] ^= uint64_t(1) << 4;
    expect(ironman::ppml::reconstructMlpValues(32, s0, s1) != values,
           "one flipped bit of an output share is flagged");

    // Metric names and units stay inside the result format's limits.
    const std::regex name_re("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
    const std::regex unit_re("[A-Za-z0-9_/%.-]{1,16}");
    std::set<std::string> seen;
    bool names_ok = true;
    for (const MetricDecl &m : kMetrics)
        names_ok &= std::regex_match(m.name, name_re) &&
                    std::regex_match(m.unit, unit_re) &&
                    seen.insert(m.name).second && m.workloads != 0;
    expect(names_ok, "metric names match [A-Za-z0-9_.-]+, once each");
    return failures ? 1 : 0;
}

/**
 * Completes a run's metrics against the declaration: a metric of a
 * layer the workload does not exercise reads 0; a missing, undeclared
 * or mis-united metric is a benchmark bug and fails the run.
 */
bool
completeMetrics(const Workload &w, bool traced, RunResult &res)
{
    bool ok = true;
    for (const MetricDecl &m : kMetrics) {
        if (m.endToEnd == traced)
            continue;
        const auto it = res.metrics.find(m.name);
        if (it == res.metrics.end()) {
            if (m.workloads & w.bit) {
                std::fprintf(stderr, "perfbench: %s not measured\n",
                             m.name);
                ok = false;
            }
            res.set(m.name, 0, m.unit);
        } else if (it->second.unit != m.unit) {
            std::fprintf(stderr, "perfbench: %s unit %s, declared %s\n",
                         m.name, it->second.unit.c_str(), m.unit);
            ok = false;
        }
    }
    for (const auto &[name, metric] : res.metrics) {
        bool declared = false;
        for (const MetricDecl &m : kMetrics)
            declared |= name == m.name && m.endToEnd != traced;
        if (!declared) {
            std::fprintf(stderr, "perfbench: %s is not declared\n",
                         name.c_str());
            ok = false;
        }
    }
    return ok;
}

void
printResult(bool correct, const RunResult &res)
{
    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
                "\"metrics\":{",
                correct ? "true" : "false",
                (unsigned long long)res.attempted,
                (unsigned long long)res.failed);
    bool first = true;
    for (const auto &[name, m] : res.metrics) {
        const double v = std::isfinite(m.value) ? m.value : 0;
        std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                    first ? "" : ",", name.c_str(), v, m.unit.c_str());
        first = false;
    }
    std::printf("}}\n");
}

/**
 * The library picks its LPN kernel and tap prefetch by timing them once
 * per process, at the first encode. Run that first encode here, on an
 * otherwise idle process, so the choice is not made while the daemons'
 * threads compete for the cores. Nothing is pinned: the library still
 * chooses, and the host facts report what it chose.
 */
void
calibrateQuietly()
{
    using namespace ironman::ot;
    const FerretParams p = tinyTestParams();
    LpnParams lp;
    lp.n = p.n;
    lp.k = p.k;
    lp.d = p.lpnWeight;
    lp.seed = p.lpnSeed;
    const LpnEncoder enc(lp);
    ironman::common::ThreadPool pool(1);
    LpnEncodeScratch scratch;
    LpnIndexTape tape;
    enc.buildTape(tape, lp.n, pool, &scratch);
    std::vector<Block> in(lp.k), rows(lp.n);
    enc.encodeBlocksTape(in.data(), rows.data(), 0, lp.n, tape);
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-file PATH]\n"
                 "       perfbench --list-metrics | --selftest\n");
    return 2;
}

} // namespace

int
runMain(int argc, char **argv)
{
    RunConfig cfg;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--list-metrics") {
            listMetrics();
            return 0;
        }
        if (a == "--selftest")
            return selftest();
        if (i + 1 >= argc)
            return usage();
        const char *v = argv[++i];
        if (a == "--workload")
            cfg.workload = v;
        else if (a == "--seed")
            cfg.seed = std::strtoull(v, nullptr, 10);
        else if (a == "--seconds")
            cfg.seconds = std::atof(v);
        else if (a == "--trace")
            cfg.trace = std::strcmp(v, "0") != 0;
        else if (a == "--trace-file")
            cfg.traceFile = v;
        else
            return usage();
    }
    const Workload *w = nullptr;
    for (const Workload &x : kWorkloads)
        if (cfg.workload == x.name)
            w = &x;
    if (!w || !(cfg.seconds > 0))
        return usage();

    // glibc raises its mmap threshold each time a large block is freed,
    // so where later buffers land (a fresh mapping, or a heap that keeps
    // its pages) depends on the order earlier ones were freed in, and
    // the peak resident set wandered by a quarter between runs. A fixed
    // threshold maps every large buffer and unmaps it on free.
#ifdef __GLIBC__
    mallopt(M_MMAP_THRESHOLD, 1 << 20);
#endif
    const std::vector<double> cpu_at_start = cpuTimes();
    RunResult res;
    try {
        calibrateQuietly();
        res = w->run(cfg);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n", w->name,
                     e.what());
        return 1;
    }
    if (res.attempted == 0) {
        std::fprintf(stderr, "perfbench: %s checked nothing\n", w->name);
        return 1;
    }
    if (!cfg.trace) {
        res.set("ok_ratio",
                double(res.attempted - res.failed) / double(res.attempted),
                "ratio");
    }
    bool correct = completeMetrics(*w, cfg.trace, res) && res.failed == 0;
    if (cfg.trace && (w->bit & (kOte | kInfer))) {
        // The traced ledger must explain the operation's wall time.
        const char *part = w->bit == kOte ? "ot.unattributed_ms_per_ext"
                                          : "infer.unattributed_ms_per_req";
        const char *whole =
            w->bit == kOte ? "ot.ledger_ext_ms" : "infer.ledger_req_ms";
        const double share = res.metrics[part].value /
                             std::max(res.metrics[whole].value, 1e-9);
        if (std::fabs(share) > kClosureBound) {
            std::fprintf(stderr,
                         "perfbench: ledger does not close: %s is %.1f%% "
                         "of %s (bound %.0f%%)\n",
                         part, share * 100, whole, kClosureBound * 100);
            correct = false;
        }
    }
    std::printf("{\"host\":%s}\n", hostFactsJson(res.threadsUsed, cpu_at_start).c_str());
    printResult(correct, res);
    return 0;
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    return perfbench::runMain(argc, argv);
}
