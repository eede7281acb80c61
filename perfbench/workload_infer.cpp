/**
 * @file
 * The served-inference workload, infer-lan-d8: one InferClient runs
 * mlp-16x8x4 at width 32 with batch-1 requests through a depth-8
 * streaming window (ladder comparison, packed wire), supplied by
 * reservoirs on the in-process COT service, over a simulated 0.15 ms
 * RTT. The client is a closed loop: it keeps the window full and
 * collects each answer as it lands.
 *
 * Every output is checked after the window against the grouped
 * in-process reference (ppml::runLocalMlpInference over the same
 * requests, grouped as the session committed them), bit for bit.
 */

#include <cstdio>
#include <memory>

#include "common/trace.h"
#include "infer/infer_client.h"
#include "infer/infer_server.h"
#include "ppml/mlp_runner.h"
#include "ppml/model_zoo.h"
#include "perfbench.h"
#include "svc/cot_server.h"
#include "svc/operator_stock.h"

namespace perfbench {

namespace {

using namespace ironman;

constexpr const char *kModel = "mlp-16x8x4";
constexpr unsigned kWidth = 32;
constexpr uint16_t kDepth = 8;
constexpr uint64_t kRttUs = 150;
constexpr int kSetups = 5;
/** Distinct images drawn from the seed; requests cycle through them. */
constexpr size_t kImages = 1024;

/** A fresh inference daemon with its COT service and operator stock. */
struct InferDaemon
{
    InferDaemon()
    {
        stock.attach(cot);
        server.attachOperatorStock(stock);
        cotPort = cot.listenTcp(0);
        port = server.listenTcp(0);
    }

    ~InferDaemon()
    {
        server.stop();
        cot.stop();
    }

    InferDaemon(const InferDaemon &) = delete;
    InferDaemon &operator=(const InferDaemon &) = delete;

    svc::OperatorStock stock;
    svc::CotServer cot;
    infer::InferServer server;
    uint16_t cotPort = 0;
    uint16_t port = 0;
};

/**
 * The per-request ledger over the retained trace window: window
 * queueing, layer compute, AND-round and result wire wait, and supply
 * wait (the server blocked on its operator stock while the client
 * waited on the wire), plus the remainder.
 */
struct RequestLedger
{
    size_t requests = 0;
    size_t images = 0; ///< images in the covered commit groups
    double latencyMs = 0, queueMs = 0, computeMs = 0, wireMs = 0,
           supplyMs = 0, unattributedMs = 0; ///< means per request
    std::vector<double> queue;
    double denseMs = 0, reluMs = 0, andMs = 0, otBatchMs = 0; ///< per image
    std::vector<double> submitUs, commitMs;
};

RequestLedger
requestLedger(const Trace &tr)
{
    RequestLedger led;
    const std::vector<const TraceSpan *> reqs = tr.find("request");
    if (reqs.empty())
        return led;
    // The client is the thread that reconstructs requests, the server
    // session the one that runs the mirror commits.
    const uint32_t client = reqs.front()->tid;
    const std::vector<const TraceSpan *> commits = tr.find("commit");
    const uint32_t server = commits.empty() ? 0 : commits.front()->tid;

    const Intervals wire = wireWait(tr, client);
    const Intervals layers =
        unionOf(unionOf(tr.findPrefix("dense", client)),
                unionOf(tr.findPrefix("relu", client)));
    const Intervals stock = unionOf(tr.find("stock_wait", server));

    std::vector<const TraceSpan *> groups;
    for (const TraceSpan *c : tr.find("commit_group", client))
        if (tr.covers(client, c->t0) && tr.covers(server, c->t0))
            groups.push_back(c);

    auto sumWithin = [&](const char *prefix) {
        double us = 0;
        for (const TraceSpan *s : tr.findPrefix(prefix, client))
            for (const TraceSpan *g : groups)
                if (s->t0 >= g->t0 && s->t1 <= g->t1)
                    us += double(s->t1 - s->t0);
        return us / 1e3;
    };
    for (const TraceSpan *g : groups) {
        led.images += g->tag;
        led.commitMs.push_back(double(g->t1 - g->t0) / 1e3);
    }
    if (led.images) {
        const double n = double(led.images);
        led.denseMs = sumWithin("dense") / n;
        led.reluMs = sumWithin("relu") / n;
        led.andMs = sumWithin("and_shares") / n;
        led.otBatchMs = (sumWithin("ot_send") + sumWithin("ot_recv")) / n;
    }
    for (const TraceSpan *s : tr.find("submit", client))
        if (tr.covers(client, s->t0))
            led.submitUs.push_back(double(s->t1 - s->t0));

    for (const TraceSpan *r : reqs) {
        if (!tr.covers(client, r->t0))
            continue;
        const TraceSpan *g = nullptr;
        for (const TraceSpan *c : groups)
            if (c->t0 <= r->t1 && r->t1 <= c->t1)
                g = c;
        if (!g)
            continue;
        const uint64_t c0 = std::max(g->t0, r->t0);
        const Intervals w = clip(wire, c0, r->t1);
        const Intervals supply = intersect(w, stock);
        const double lat = double(r->t1 - r->t0) / 1e3;
        const double queue = double(c0 - r->t0) / 1e3;
        const double wire_ms =
            double(lengthOf(w) - lengthOf(supply)) / 1e3;
        const double supply_ms = double(lengthOf(supply)) / 1e3;
        const double compute =
            double(lengthOf(subtract(clip(layers, c0, r->t1), w))) / 1e3;
        ++led.requests;
        led.latencyMs += lat;
        led.queueMs += queue;
        led.wireMs += wire_ms;
        led.supplyMs += supply_ms;
        led.computeMs += compute;
        led.unattributedMs += lat - queue - wire_ms - supply_ms - compute;
        led.queue.push_back(queue);
    }
    if (led.requests) {
        const double n = double(led.requests);
        led.latencyMs /= n;
        led.queueMs /= n;
        led.wireMs /= n;
        led.supplyMs /= n;
        led.computeMs /= n;
        led.unattributedMs /= n;
    }
    return led;
}

} // namespace

RunResult
runInfer(const RunConfig &cfg)
{
    const ppml::MlpModelSpec &spec = *ppml::findMlpModel(kModel);
    infer::InferClient::Options opt;
    opt.modelId = spec.id;
    opt.width = kWidth;
    opt.batch = 1;
    opt.supply = infer::SupplyKind::Reservoir;
    opt.depth = kDepth;
    opt.streamCommit = true;
    opt.simulatedDelayUs = kRttUs;
    opt.setupSeed = cfg.seed * 2 + 1;
    opt.shareSeed = cfg.seed * 2 + 2;

    RunResult res;
    // The client, its two refill threads, and their three server peers.
    res.threadsUsed = 6;
    if (cfg.trace)
        measureOtKernels(opt.params, 1, res);
    const LayerCounters run0 = LayerCounters::now();

    std::vector<std::vector<int64_t>> images;
    for (size_t i = 0; i < kImages; ++i)
        images.push_back(
            ppml::sampleMlpInput(spec, cfg.seed * kImages + i, 1));
    const std::vector<int64_t> first_ref =
        ppml::runLocalMlpInference(spec, kWidth, {images[0]},
                                   opt.shareSeed, opt.setupSeed,
                                   opt.params)
            .outputs[0];

    RoundFigures fig;
    Window w;
    std::string trace_doc;
    LayerCounters run;
    double peer_spcot = 0, peer_lpn = 0;
    uint64_t traced_images = 0, traced_turns = 0, traced_bytes = 0,
             traced_cots = 0;
    for (int round = 0; round < roundsOf(cfg); ++round) {
        fig.beginRound();
        // Set-up: a fresh daemon to the first checked answer; the last
        // one serves the window.
        std::unique_ptr<InferDaemon> daemon;
        std::unique_ptr<infer::InferClient> client;
        for (int k = 0; k < kSetups; ++k) {
            client.reset();
            daemon.reset();
            const double t0 = nowMs();
            daemon = std::make_unique<InferDaemon>();
            const double c0 = nowMs();
            client = infer::InferClient::connectTcpReservoir(
                "127.0.0.1", daemon->port, "127.0.0.1", daemon->cotPort,
                opt);
            fig.openMs.push_back(nowMs() - c0);
            res.check(client->infer(images[0]) == first_ref);
            fig.setupS.push_back((nowMs() - t0) / 1e3);
        }

        // Measured window: submit while the window has room, collect
        // each answer as soon as it is reconstructed.
        std::vector<size_t> order; ///< image index of each submission
        std::vector<std::vector<int64_t>> outputs;
        auto keep = [&](infer::InferClient::Result &r) {
            outputs.push_back(r.ok ? std::move(r.outputs)
                                   : std::vector<int64_t>());
        };
        const size_t cots0 = client->cotsConsumed();
        w = Window();
        w.run(cfg.seconds / roundsOf(cfg), cfg.trace,
              [&](double ms, bool traced) {
                  const size_t n0 = outputs.size();
                  const uint64_t turns0 = client->onlineTurns();
                  const uint64_t bytes0 = client->onlineBytesSent() +
                                          client->onlineBytesReceived();
                  const size_t block_cots0 = client->cotsConsumed();
                  const double end = nowMs() + ms;
                  while (nowMs() < end) {
                      order.push_back(1 + order.size() % (kImages - 1));
                      client->submit(images[order.back()]);
                      while (order.size() - outputs.size() >
                             client->inFlight()) {
                          infer::InferClient::Result r = client->collect();
                          w.latMs[traced].push_back(double(r.latencyUs) /
                                                    1e3);
                          keep(r);
                      }
                  }
                  if (traced) {
                      traced_images += outputs.size() - n0;
                      traced_turns += client->onlineTurns() - turns0;
                      traced_bytes += client->onlineBytesSent() +
                                      client->onlineBytesReceived() -
                                      bytes0;
                      traced_cots += client->cotsConsumed() - block_cots0;
                  }
              });
        const double window_images = double(outputs.size());
        const double window_cots = double(client->cotsConsumed() - cots0);
        for (infer::InferClient::Result &r : client->drain())
            keep(r);
        const size_t depth = client->negotiatedDepth();
        if (cfg.trace)
            trace_doc = exportTrace(cfg);
        client.reset();
        if (cfg.trace) {
            run = LayerCounters::now() - run0;
            serverPhases(daemon->cot, opt.params, &peer_spcot,
                         &peer_lpn);
        }
        daemon.reset();

        // Check: group the requests exactly as the session committed
        // them (depth-sized groups in submission order, after the
        // set-up request's group of one) and compare bit for bit.
        std::vector<std::vector<int64_t>> grouped = {images[0]};
        for (size_t i = 0; i < order.size(); ++i) {
            if (i % depth == 0)
                grouped.emplace_back();
            grouped.back().insert(grouped.back().end(),
                                  images[order[i]].begin(),
                                  images[order[i]].end());
        }
        const ppml::LocalMlpResult ref =
            ppml::runLocalMlpInference(spec, kWidth, grouped, opt.shareSeed,
                                       opt.setupSeed, opt.params);
        const size_t out_dim = spec.outputDim();
        for (size_t i = 0; i < order.size(); ++i) {
            const std::vector<int64_t> &g = ref.outputs[1 + i / depth];
            const auto at = g.begin() + (i % depth) * out_dim;
            res.check(i < outputs.size() &&
                      outputs[i] == std::vector<int64_t>(at, at + out_dim));
        }
        if (!cfg.trace)
            fig.addRound(w, window_images, window_cots);
    }
    fig.report(cfg.trace, res);
    if (!cfg.trace)
        return res;

    const Trace tr = parseChromeTrace(trace_doc);
    const RequestLedger led = requestLedger(tr);
    const std::vector<const TraceSpan *> refills = tr.find("refill");
    const ExtLedger ext = extensionLedger(
        tr, refills, res.metrics["ot.copy_out_ms_per_ext"].value);
    std::vector<double> refill_ms;
    for (const TraceSpan *s : refills)
        refill_ms.push_back(double(s->t1 - s->t0) / 1e3);

    const LayerCounters &tc = w.tracedCounters;
    const double timg = double(traced_images);
    const double exts = tc.refills();
    reportExtensionLayers(res, ext, peer_spcot, peer_lpn, run, w);
    // The registry counts every channel in the process; the online
    // channel's share (both directions) comes off to leave the COT
    // sessions' traffic.
    res.set("net.bytes_per_ext",
            exts ? (tc.bytes() - double(traced_bytes)) / exts : 0, "B/ext");
    res.set("net.turns_per_ext",
            exts ? (tc.turns() - 2 * double(traced_turns)) / exts : 0,
            "count/ext");
    res.set("net.read_wait_ms_per_req", led.wireMs, "ms/req");
    res.set("svc.ext_ms_p90", quantile(refill_ms, 0.9), "ms/ext");
    res.set("svc.reservoir_stall_ms_per_img",
            timg ? tc.stallUs() / 1e3 / timg : 0, "ms/img");
    res.set("svc.operator_wait_ms_per_img",
            timg ? tc.operatorWaitUs() / 1e3 / timg : 0, "ms/img");
    res.set("svc.reservoir_refills_per_s",
            exts / (w.wallMs[1] / 1e3), "1/s");
    res.set("svc.supply_wait_ms_per_req", led.supplyMs, "ms/req");
    res.set("ppml.dense_ms_per_img", led.denseMs, "ms/img");
    res.set("ppml.relu_ms_per_img", led.reluMs, "ms/img");
    res.set("ppml.and_ms_per_img", led.andMs, "ms/img");
    res.set("ppml.ot_batch_ms_per_img", led.otBatchMs, "ms/img");
    res.set("ppml.compute_ms_per_req", led.computeMs, "ms/req");
    res.set("ppml.rounds_per_img",
            timg ? double(traced_turns) / 2 / timg : 0, "count/img");
    res.set("ppml.cots_per_img", timg ? double(traced_cots) / timg : 0,
            "count/img");
    res.set("infer.bytes_per_img", timg ? double(traced_bytes) / timg : 0,
            "B/img");
    res.set("infer.submit_us_p50", median(led.submitUs), "us/req");
    res.set("infer.commit_ms_p50", median(led.commitMs), "ms/group");
    res.set("infer.queue_ms_p50", median(led.queue), "ms/req");
    res.set("infer.req_ms_p99", quantile(w.latMs[0], 0.99), "ms");
    res.set("infer.ledger_req_ms", led.latencyMs, "ms/req");
    res.set("infer.ledger_reqs", double(led.requests), "count");
    res.set("infer.unattributed_ms_per_req", led.unattributedMs, "ms/req");
    std::fprintf(stderr,
                 "perfbench: request ledger over %zu: latency %.3f ms = "
                 "queue %.3f + compute %.3f + wire %.3f + supply %.3f + "
                 "unattributed %.3f\n",
                 led.requests, led.latencyMs, led.queueMs, led.computeMs,
                 led.wireMs, led.supplyMs, led.unattributedMs);
    return res;
}

} // namespace perfbench
