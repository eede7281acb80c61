/**
 * @file
 * Reading the library's trace export back into per-layer time.
 *
 * The export is one event per line (common/trace.cpp), so a line scan
 * for the handful of keys the ledger needs is enough. Attribution is
 * by self time on a thread: a layer's share of an interval is the
 * part its spans cover that no span of a layer listed before it
 * covers, so nested or overlapping spans are never counted twice.
 */

#include <algorithm>
#include <cstdlib>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "perfbench.h"

namespace perfbench {

namespace {

bool
numberField(const std::string &line, const char *key, uint64_t *out)
{
    const std::string k = std::string("\"") + key + "\":";
    const size_t at = line.find(k);
    if (at == std::string::npos)
        return false;
    const char *p = line.c_str() + at + k.size();
    if (*p == '"')
        ++p;
    char *end = nullptr;
    *out = std::strtoull(p, &end, 10);
    return end != p;
}

bool
stringField(const std::string &line, const char *key, std::string *out)
{
    const std::string k = std::string("\"") + key + "\":\"";
    const size_t at = line.find(k);
    if (at == std::string::npos)
        return false;
    const size_t from = at + k.size();
    const size_t to = line.find('"', from);
    if (to == std::string::npos)
        return false;
    *out = line.substr(from, to - from);
    return true;
}

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.compare(0, std::strlen(prefix), prefix) == 0;
}

} // namespace

Trace
parseChromeTrace(const std::string &doc)
{
    Trace tr;
    std::istringstream in(doc);
    std::string line;
    while (std::getline(in, line)) {
        std::string ph, name;
        if (!stringField(line, "ph", &ph) ||
            !stringField(line, "name", &name))
            continue;
        if (ph == "M")
            continue; // process/thread names
        uint64_t tid = 0;
        numberField(line, "tid", &tid);
        TraceSpan s;
        s.name = name;
        s.tid = uint32_t(tid);
        uint64_t ts = 0, dur = 0, tag = 0;
        numberField(line, "ts", &ts);
        numberField(line, "dur", &dur);
        numberField(line, "tag", &tag);
        numberField(line, "bytes", &s.bytes);
        s.t0 = ts;
        s.t1 = ts + dur;
        s.tag = uint32_t(tag);
        // Events land in the ring as they end, so the earliest end
        // stamp still held is where the thread's record is complete.
        auto [it, fresh] = tr.ringStart.emplace(s.tid, s.t1);
        if (!fresh)
            it->second = std::min(it->second, s.t1);
        tr.spans.push_back(std::move(s));
    }
    std::sort(tr.spans.begin(), tr.spans.end(),
              [](const TraceSpan &a, const TraceSpan &b) {
                  return a.t0 < b.t0;
              });
    return tr;
}

std::string
exportTrace(const RunConfig &cfg)
{
    std::string doc = ironman::trace::exportChromeTrace();
    if (!cfg.traceFile.empty()) {
        std::ofstream f(cfg.traceFile);
        f << doc;
        if (!f)
            std::fprintf(stderr, "perfbench: could not write %s\n",
                         cfg.traceFile.c_str());
    }
    return doc;
}

std::vector<const TraceSpan *>
Trace::find(const char *name, uint32_t tid) const
{
    std::vector<const TraceSpan *> out;
    for (const TraceSpan &s : spans)
        if ((tid == 0 || s.tid == tid) && s.name == name)
            out.push_back(&s);
    return out;
}

std::vector<const TraceSpan *>
Trace::findPrefix(const char *prefix, uint32_t tid) const
{
    std::vector<const TraceSpan *> out;
    for (const TraceSpan &s : spans)
        if ((tid == 0 || s.tid == tid) && startsWith(s.name, prefix))
            out.push_back(&s);
    return out;
}

bool
Trace::covers(uint32_t tid, uint64_t t) const
{
    const auto it = ringStart.find(tid);
    return it != ringStart.end() && it->second <= t;
}

namespace {

Intervals
merged(Intervals v)
{
    std::sort(v.begin(), v.end());
    Intervals out;
    for (const auto &iv : v) {
        if (!out.empty() && iv.first <= out.back().second)
            out.back().second = std::max(out.back().second, iv.second);
        else
            out.push_back(iv);
    }
    return out;
}

} // namespace

Intervals
unionOf(const std::vector<const TraceSpan *> &spans)
{
    Intervals v;
    for (const TraceSpan *s : spans)
        if (s->t1 > s->t0)
            v.emplace_back(s->t0, s->t1);
    return merged(std::move(v));
}

Intervals
unionOf(const Intervals &a, const Intervals &b)
{
    Intervals v = a;
    v.insert(v.end(), b.begin(), b.end());
    return merged(std::move(v));
}

Intervals
wireWait(const Trace &tr, uint32_t tid)
{
    return unionOf(unionOf(tr.find("read_frame", tid)),
                   unionOf(tr.find("flush", tid)));
}

Intervals
clip(const Intervals &a, uint64_t lo, uint64_t hi)
{
    Intervals out;
    for (const auto &[b, e] : a) {
        const uint64_t cb = std::max(b, lo), ce = std::min(e, hi);
        if (cb < ce)
            out.emplace_back(cb, ce);
    }
    return out;
}

uint64_t
lengthOf(const Intervals &a)
{
    uint64_t n = 0;
    for (const auto &[b, e] : a)
        n += e - b;
    return n;
}

Intervals
intersect(const Intervals &a, const Intervals &b)
{
    Intervals out;
    size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
        const uint64_t lo = std::max(a[i].first, b[j].first);
        const uint64_t hi = std::min(a[i].second, b[j].second);
        if (lo < hi)
            out.emplace_back(lo, hi);
        if (a[i].second < b[j].second)
            ++i;
        else
            ++j;
    }
    return out;
}

Intervals
subtract(const Intervals &a, const Intervals &b)
{
    Intervals out;
    size_t j = 0;
    for (auto [lo, hi] : a) {
        while (j < b.size() && b[j].second <= lo)
            ++j;
        size_t k = j;
        while (lo < hi && k < b.size() && b[k].first < hi) {
            if (b[k].first > lo)
                out.emplace_back(lo, b[k].first);
            lo = std::max(lo, b[k].second);
            ++k;
        }
        if (lo < hi)
            out.emplace_back(lo, hi);
    }
    return out;
}

ExtLedger
extensionLedger(const Trace &tr,
                const std::vector<const TraceSpan *> &walls, double copy_ms)
{
    ExtLedger led;
    std::map<uint32_t, Intervals> spcot, lpn, wire;
    for (const TraceSpan *w : walls) {
        if (!tr.covers(w->tid, w->t0))
            continue;
        if (!spcot.count(w->tid)) {
            spcot[w->tid] = unionOf(tr.findPrefix("spcot_", w->tid));
            lpn[w->tid] = unionOf(tr.findPrefix("lpn_", w->tid));
            wire[w->tid] = wireWait(tr, w->tid);
        }
        const Intervals s = clip(spcot[w->tid], w->t0, w->t1);
        const Intervals l = clip(lpn[w->tid], w->t0, w->t1);
        if (s.empty() && l.empty())
            continue; // the library did not sample this extension
        // Wire wait first (a blocked read inside a phase is the wire's
        // time, not the kernel's), then SPCOT, then LPN.
        const Intervals wi = clip(wire[w->tid], w->t0, w->t1);
        const double wall = double(w->t1 - w->t0) / 1e3;
        const double wms = double(lengthOf(wi)) / 1e3;
        const double sms = double(lengthOf(subtract(s, wi))) / 1e3;
        const double lms =
            double(lengthOf(subtract(subtract(l, wi), s))) / 1e3;
        ++led.sampled;
        led.wallMs += wall;
        led.wireMs += wms;
        led.spcotMs += sms;
        led.lpnMs += lms;
    }
    if (led.sampled) {
        const double n = double(led.sampled);
        led.wallMs /= n;
        led.wireMs /= n;
        led.spcotMs /= n;
        led.lpnMs /= n;
        led.copyMs = copy_ms;
        led.unattributedMs = led.wallMs - led.wireMs - led.spcotMs -
                             led.lpnMs - led.copyMs;
    }
    return led;
}

void
reportExtensionLayers(RunResult &res, const ExtLedger &led,
                      double server_spcot_ms, double server_lpn_ms,
                      const LayerCounters &run, const Window &w)
{
    res.set("ot.spcot_ms_per_ext", led.spcotMs, "ms/ext");
    res.set("ot.lpn_ms_per_ext", led.lpnMs, "ms/ext");
    res.set("ot.server_spcot_ms_per_ext", server_spcot_ms, "ms/ext");
    res.set("ot.server_lpn_ms_per_ext", server_lpn_ms, "ms/ext");
    res.set("ot.ledger_ext_ms", led.wallMs, "ms/ext");
    res.set("ot.ledger_exts", double(led.sampled), "count");
    res.set("ot.unattributed_ms_per_ext", led.unattributedMs, "ms/ext");
    res.set("net.read_wait_ms_per_ext", led.wireMs, "ms/ext");
    res.set("svc.engine_warm_hit_ratio",
            run.checkouts() ? run.warmHits() / run.checkouts() : 0,
            "ratio");
    res.set("svc.engines_built", run.built(), "count");
    res.set("trace.overhead_ratio", w.traceOverhead(), "ratio");
    std::fprintf(stderr,
                 "perfbench: extension ledger over %zu sampled: wall "
                 "%.3f ms = spcot %.3f + lpn %.3f + wire %.3f + copy "
                 "%.3f + unattributed %.3f\n",
                 led.sampled, led.wallMs, led.spcotMs, led.lpnMs,
                 led.wireMs, led.copyMs, led.unattributedMs);
}

} // namespace perfbench
