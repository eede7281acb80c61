/**
 * @file
 * The two COT-service workloads.
 *
 *   ote-2p20        one receiver-role session on the paper's 2^20 set,
 *                   1 engine thread per party: the `ot` kernels do
 *                   the work (LPN's k-vector exceeds a core's L2).
 *   cot-tiny-churn  a Sender-role and a Receiver-role session at once
 *                   on the tiny aligned set, 1 engine thread per party,
 *                   each running short bursts and reconnecting: fixed
 *                   per-extension cost, handshakes, accept and warm
 *                   engine reuse dominate; the k-vector fits in L2.
 *
 * Both are closed loops (a client waits for each extension) against an
 * in-process svc::CotServer over loopback TCP. The server's half of
 * every correlation is captured through the CotServer batch sinks and
 * checked against the client's half (t = q ^ x * delta).
 */

#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>

#include "common/trace.h"
#include "perfbench.h"
#include "svc/cot_client.h"
#include "svc/cot_server.h"

namespace perfbench {

namespace {

using namespace ironman;

/** Indices spot-checked in every timed 2^20 extension. */
constexpr size_t kSamplesPerExt = 256;
/** Fresh churn daemons per round; setup_s is the median over all. */
constexpr int kChurnSetups = 5;
/**
 * Extra sessions opened and closed per ote-2p20 round (each after the
 * previous one has ended), so the open time has enough samples for a
 * steady median.
 */
constexpr int kOteOpens = 8;
/** Extensions per churn session before it closes and reconnects. */
constexpr int kChurnBurst = 16;
/** Longest wait for a server half before the check counts as failed. */
constexpr double kHalfTimeoutMs = 10000;

/** The server's half of one extension, as its batch sink saw it. */
struct ServerExt
{
    bool present = false;
    bool full = false; ///< every index copied (else only the sample)
    Block delta;       ///< sender role
    std::vector<Block> blocks; ///< q (sender) or t (receiver)
    BitVec choice;             ///< receiver role
};

/**
 * Captures the server halves. A sample of indices is copied from every
 * extension; every index from iteration 0, from the iteration named by
 * copyAllOf(), or from all of them when built with `full_always`.
 */
class ServerHalves
{
  public:
    ServerHalves(std::vector<uint32_t> sample, bool full_always)
        : sample_(std::move(sample)), fullAlways_(full_always)
    {
    }

    ServerHalves(const ServerHalves &) = delete;
    ServerHalves &operator=(const ServerHalves &) = delete;

    void
    attach(svc::CotServer &server)
    {
        server.setSenderSink([this](const svc::CotServer::SenderBatch &b) {
            store(b.sessionId, b.iteration, b.delta, b.q, nullptr,
                  b.count);
        });
        server.setReceiverSink(
            [this](const svc::CotServer::ReceiverBatch &b) {
                store(b.sessionId, b.iteration, Block(), b.t, b.choice,
                      b.count);
            });
    }

    void copyAllOf(uint64_t iteration) { fullIter_ = iteration; }

    /** Wait for (sid, iteration) and take it; !present on timeout. */
    ServerExt
    take(uint64_t sid, uint64_t iteration)
    {
        std::unique_lock<std::mutex> lock(m_);
        const auto key = std::make_pair(sid, iteration);
        cv_.wait_for(lock,
                     std::chrono::duration<double, std::milli>(
                         kHalfTimeoutMs),
                     [&] { return halves_.count(key) > 0; });
        const auto it = halves_.find(key);
        if (it == halves_.end())
            return {};
        ServerExt out = std::move(it->second);
        halves_.erase(it);
        return out;
    }

  private:
    void
    store(uint64_t sid, uint64_t iteration, const Block &delta,
          const Block *blocks, const BitVec *choice, size_t count)
    {
        ServerExt e;
        e.present = true;
        e.delta = delta;
        e.full = fullAlways_ || iteration == 0 ||
                 iteration == fullIter_.load();
        if (e.full) {
            e.blocks.assign(blocks, blocks + count);
            if (choice)
                e.choice.assignRange(*choice, 0, count);
        } else {
            e.blocks.reserve(sample_.size());
            e.choice.resize(sample_.size());
            for (size_t i = 0; i < sample_.size(); ++i) {
                e.blocks.push_back(blocks[sample_[i]]);
                if (choice)
                    e.choice.set(i, choice->get(sample_[i]));
            }
        }
        {
            std::lock_guard<std::mutex> lock(m_);
            halves_[{sid, iteration}] = std::move(e);
        }
        cv_.notify_all();
    }

    const std::vector<uint32_t> sample_;
    const bool fullAlways_;
    std::atomic<uint64_t> fullIter_{~uint64_t(0)};
    std::mutex m_;
    std::condition_variable cv_;
    std::map<std::pair<uint64_t, uint64_t>, ServerExt> halves_;
};

/** A fresh COT daemon; the halves outlive the server's sessions. */
struct CotDaemon
{
    CotDaemon(std::vector<uint32_t> sample, bool full_always,
              int engine_threads)
        : halves(std::move(sample), full_always),
          server(svc::CotServer::Config{engine_threads})
    {
        halves.attach(server);
        port = server.listenTcp(0);
    }

    ServerHalves halves;
    svc::CotServer server;
    uint16_t port = 0;
};

/**
 * Per-layer metrics shared by both COT workloads (traced run); the
 * daemon's sessions must have ended.
 */
void
setCotLayers(const RunConfig &cfg, RunResult &res, const Window &w,
             const LayerCounters &run, CotDaemon &d,
             const ot::FerretParams &p)
{
    const Trace tr = parseChromeTrace(exportTrace(cfg));
    const ExtLedger led =
        extensionLedger(tr, tr.find("bench_ext"),
                        res.metrics["ot.copy_out_ms_per_ext"].value);
    double peer_spcot = 0, peer_lpn = 0;
    serverPhases(d.server, p, &peer_spcot, &peer_lpn);

    reportExtensionLayers(res, led, peer_spcot, peer_lpn, run, w);

    const double traced_ops = double(w.latMs[1].size());
    const LayerCounters &tc = w.tracedCounters;
    res.set("net.bytes_per_ext",
            traced_ops ? tc.bytes() / traced_ops : 0, "B/ext");
    res.set("net.turns_per_ext",
            traced_ops ? tc.turns() / traced_ops : 0, "count/ext");
    res.set("svc.ext_ms_p90", quantile(w.latMs[1], 0.9), "ms/ext");
}

} // namespace

void
waitSessionsEnded(svc::CotServer &server)
{
    svc::EnginePool &pool = server.pool();
    const double until = nowMs() + 2000;
    while ((server.activeSessions() > 0 ||
            pool.idleSenders() + pool.idleReceivers() <
                pool.sendersCreated() + pool.receiversCreated()) &&
           nowMs() < until)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

void
serverPhases(svc::CotServer &server, const ot::FerretParams &p,
             double *spcot_ms, double *lpn_ms)
{
    waitSessionsEnded(server);
    svc::EnginePool &pool = server.pool();
    std::vector<svc::EnginePool::SenderLease> senders;
    std::vector<svc::EnginePool::ReceiverLease> receivers;
    double spcot_us = 0, lpn_us = 0, exts = 0;
    auto add = [&](const StatSet &st) {
        spcot_us += double(st.get("spcot_us"));
        lpn_us += double(st.get("lpn_us") + st.get("lpn_prefix_us") +
                         st.get("lpn_bits_us"));
        exts += double(st.get("extensions"));
    };
    for (size_t n = pool.idleSenders(); n > 0; --n) {
        senders.push_back(pool.checkoutSender(p));
        add(senders.back()->stats());
    }
    for (size_t n = pool.idleReceivers(); n > 0; --n) {
        receivers.push_back(pool.checkoutReceiver(p));
        add(receivers.back()->stats());
    }
    *spcot_ms = exts ? spcot_us / exts / 1e3 : 0;
    *lpn_ms = exts ? lpn_us / exts / 1e3 : 0;
}

// ---------------------------------------------------------------------------
// ote-2p20
// ---------------------------------------------------------------------------

RunResult
runOte(const RunConfig &cfg)
{
    const ot::FerretParams p = ot::paperParamSet(20);
    // One engine thread per party leaves half of a 4-CPU host idle.
    // With two a party, the four threads meet at every phase, so a
    // stall of any one CPU stalls them all: beside two CPU-bound
    // processes throughput fell 35% (one thread a party: 3%), and it
    // halved in runs where other guests stole 20% of the CPU time.
    constexpr int kThreads = 1;
    const size_t usable = p.usableOts();
    const std::vector<uint32_t> sample =
        sampleIndices(cfg.seed, usable, kSamplesPerExt);

    RunResult res;
    res.threadsUsed = 2 * kThreads;
    if (cfg.trace)
        measureOtKernels(p, kThreads, res);
    const LayerCounters run0 = LayerCounters::now();

    svc::CotClient::Options opt;
    opt.role = svc::Role::Receiver;
    opt.threads = kThreads;
    opt.setupSeed = cfg.seed;

    BitVec choice;
    std::vector<Block> t(usable);
    auto fullCheck = [&](CotDaemon &d, const svc::CotClient &c,
                         uint64_t iteration) {
        const ServerExt srv = d.halves.take(c.sessionId(), iteration);
        res.check(srv.present && srv.full &&
                  allCorrelationsHold(srv.blocks.data(), t.data(), choice,
                                      srv.delta, usable));
    };

    RoundFigures fig;
    for (int round = 0; round < roundsOf(cfg); ++round) {
        fig.beginRound();
        // Set-up: a fresh daemon to the first fully checked extension.
        const double t0 = nowMs();
        CotDaemon daemon(sample, false, kThreads);
        const double c0 = nowMs();
        auto client =
            svc::CotClient::connectTcp("127.0.0.1", daemon.port, p, opt);
        fig.openMs.push_back(nowMs() - c0);
        client->extendRecv(choice, t.data());
        fullCheck(daemon, *client, 0);
        fig.setupS.push_back((nowMs() - t0) / 1e3);
        for (int k = 0; k < kOteOpens; ++k) {
            client.reset();
            waitSessionsEnded(daemon.server);
            const double o0 = nowMs();
            client = svc::CotClient::connectTcp("127.0.0.1", daemon.port,
                                                p, opt);
            fig.openMs.push_back(nowMs() - o0);
        }
        // The measured session's first extension is checked on every
        // index, outside the window.
        client->extendRecv(choice, t.data());
        fullCheck(daemon, *client, 0);

        // Measured window: the client's half of the sample is kept per
        // extension and checked after the window, so checking adds no
        // pause a pipelined engine could use.
        struct Sampled
        {
            std::vector<Block> t;
            std::vector<uint8_t> choice;
        };
        std::vector<Sampled> sampled;
        Window w;
        w.run(cfg.seconds / roundsOf(cfg), cfg.trace,
              [&](double ms, bool traced) {
                  const double end = nowMs() + ms;
                  while (nowMs() < end) {
                      const double e0 = nowMs();
                      client->extendRecv(choice, t.data());
                      const double e1 = nowMs();
                      benchSpan(traced, "bench_ext", e0, e1);
                      w.latMs[traced].push_back(e1 - e0);
                      Sampled s;
                      for (uint32_t i : sample) {
                          s.t.push_back(t[i]);
                          s.choice.push_back(choice.get(i));
                      }
                      sampled.push_back(std::move(s));
                  }
              });

        // The last extension is checked on every index, outside the
        // window.
        const uint64_t last = client->extensionsRun();
        daemon.halves.copyAllOf(last);
        client->extendRecv(choice, t.data());
        fullCheck(daemon, *client, last);

        for (size_t e = 0; e < sampled.size(); ++e) {
            const ServerExt srv =
                daemon.halves.take(client->sessionId(), e + 1);
            bool ok = srv.present && srv.blocks.size() == sample.size();
            for (size_t i = 0; ok && i < sample.size(); ++i)
                ok = correlationHolds(srv.blocks[i], sampled[e].t[i],
                                      sampled[e].choice[i], srv.delta);
            res.check(ok);
        }
        client.reset();

        const double ops = double(w.latMs[0].size());
        if (cfg.trace)
            setCotLayers(cfg, res, w, LayerCounters::now() - run0, daemon, p);
        else
            fig.addRound(w, ops, ops * double(usable));
    }
    fig.report(cfg.trace, res);
    return res;
}

// ---------------------------------------------------------------------------
// cot-tiny-churn
// ---------------------------------------------------------------------------

namespace {

/** One client role's loop state in the churn workload. */
struct ChurnClient
{
    svc::Role role;
    uint64_t setupSeed;
    uint64_t attempted = 0, failed = 0;
    std::vector<double> openMs;
    std::vector<double> latMs;

    /**
     * One session: open, @p burst extensions, close, check every
     * index of every extension against the server's half.
     */
    void
    session(CotDaemon &d, const ot::FerretParams &p, int burst,
            bool traced)
    {
        svc::CotClient::Options opt;
        opt.role = role;
        opt.threads = 1;
        opt.setupSeed = setupSeed++;
        const size_t usable = p.usableOts();

        const double c0 = nowMs();
        auto client =
            svc::CotClient::connectTcp("127.0.0.1", d.port, p, opt);
        const double c1 = nowMs();
        benchSpan(traced, "bench_open", c0, c1);
        openMs.push_back(c1 - c0);

        std::vector<std::vector<Block>> out(
            static_cast<size_t>(burst), std::vector<Block>(usable));
        std::vector<BitVec> choice(static_cast<size_t>(burst));
        for (int e = 0; e < burst; ++e) {
            const double e0 = nowMs();
            if (role == svc::Role::Receiver)
                client->extendRecv(choice[e], out[e].data());
            else
                client->extendSend(out[e].data());
            const double e1 = nowMs();
            benchSpan(traced, "bench_ext", e0, e1);
            latMs.push_back(e1 - e0);
        }
        const uint64_t sid = client->sessionId();
        const Block delta =
            role == svc::Role::Sender ? client->delta() : Block();
        client->close();

        for (int e = 0; e < burst; ++e) {
            const ServerExt srv = d.halves.take(sid, uint64_t(e));
            bool ok = srv.present && srv.full &&
                      srv.blocks.size() == usable;
            if (ok && role == svc::Role::Receiver)
                ok = allCorrelationsHold(srv.blocks.data(), out[e].data(),
                                         choice[e], srv.delta, usable);
            else if (ok)
                ok = allCorrelationsHold(out[e].data(), srv.blocks.data(),
                                         srv.choice, delta, usable);
            ++attempted;
            failed += !ok;
        }
    }
};

} // namespace

RunResult
runChurn(const RunConfig &cfg)
{
    const ot::FerretParams p = ot::tinyAlignedParams();
    const size_t usable = p.usableOts();

    RunResult res;
    res.threadsUsed = 4; // two sessions, one engine thread per party
    if (cfg.trace)
        measureOtKernels(p, 1, res);
    const LayerCounters run0 = LayerCounters::now();

    ChurnClient clients[2] = {{svc::Role::Sender, cfg.seed * 4},
                              {svc::Role::Receiver, cfg.seed * 4 + 2}};
    auto both = [&](CotDaemon &d, int burst, bool traced,
                    double until_ms) {
        std::thread th[2];
        for (int i = 0; i < 2; ++i)
            th[i] = std::thread([&, i] {
                try {
                    do
                        clients[i].session(d, p, burst, traced);
                    while (nowMs() < until_ms);
                } catch (const std::exception &e) {
                    // A lost session is a failed operation, not a crash.
                    std::fprintf(stderr, "perfbench: churn session: %s\n",
                                 e.what());
                    ++clients[i].attempted;
                    ++clients[i].failed;
                }
            });
        for (std::thread &x : th)
            x.join();
    };

    RoundFigures fig;
    for (int round = 0; round < roundsOf(cfg); ++round) {
        fig.beginRound();
        // Set-up: a fresh daemon to both roles' first checked
        // extension; the last daemon serves the window.
        std::unique_ptr<CotDaemon> daemon;
        for (int k = 0; k < kChurnSetups; ++k) {
            daemon.reset();
            const double t0 = nowMs();
            daemon = std::make_unique<CotDaemon>(std::vector<uint32_t>(),
                                                 true, 1);
            both(*daemon, 1, false, 0);
            fig.setupS.push_back((nowMs() - t0) / 1e3);
        }
        for (ChurnClient &c : clients)
            c.latMs.clear();

        Window w;
        w.run(cfg.seconds / roundsOf(cfg), cfg.trace,
              [&](double ms, bool traced) {
                  both(*daemon, kChurnBurst, traced, nowMs() + ms);
                  for (ChurnClient &c : clients) {
                      w.latMs[traced].insert(w.latMs[traced].end(),
                                             c.latMs.begin(),
                                             c.latMs.end());
                      c.latMs.clear();
                  }
              });

        const double ops = double(w.latMs[0].size());
        if (cfg.trace)
            setCotLayers(cfg, res, w, LayerCounters::now() - run0, *daemon, p);
        else
            fig.addRound(w, ops, ops * double(usable));
    }
    for (ChurnClient &c : clients) {
        fig.openMs.insert(fig.openMs.end(), c.openMs.begin(),
                          c.openMs.end());
        res.attempted += c.attempted;
        res.failed += c.failed;
    }
    fig.report(cfg.trace, res);
    return res;
}

} // namespace perfbench
