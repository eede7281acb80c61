/**
 * @file
 * Host facts, statistics helpers and the output checkers.
 */

#include <sys/resource.h>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <cstdlib>
#include <cstdio>
#include <fstream>
#include <random>
#include <set>
#include <sstream>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#define PERFBENCH_HAVE_TSC 1
#endif

#include "common/metrics.h"
#include "ot/lpn.h"
#include "perfbench.h"

// The LPN kernel and prefetch choice are process-global calibrations of
// the library. A later version may drop the calibration; these
// fallbacks keep the benchmark building then, reporting "fixed"/off.
// The library's non-template functions win overload resolution
// whenever they exist.
namespace ironman::ot::detail {
template <typename T = void>
bool
lpnPrefetchEnabled(T * = nullptr)
{
    return false;
}
} // namespace ironman::ot::detail

namespace perfbench {

namespace {

std::string
readFirstLine(const std::string &path)
{
    std::ifstream f(path);
    std::string line;
    std::getline(f, line);
    return line;
}

std::string
cpuModel()
{
    std::ifstream f("/proc/cpuinfo");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    return "unknown";
}

/** "L2 2048K (per 1 cpu)"-style description of cpu0's caches. */
std::string
cacheFacts(const char *level)
{
    for (int i = 0; i < 8; ++i) {
        const std::string dir =
            "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i);
        if (readFirstLine(dir + "/level") != level)
            continue;
        if (readFirstLine(dir + "/type") == "Instruction")
            continue;
        return readFirstLine(dir + "/size") + " shared by cpus " +
               readFirstLine(dir + "/shared_cpu_list");
    }
    return "unknown";
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

template <typename E>
std::string
kernelNameOf()
{
    if constexpr (requires { E::activeKernelName(); })
        return E::activeKernelName();
    else
        return "fixed";
}

} // namespace

std::vector<double>
cpuTimes()
{
    std::ifstream f("/proc/stat");
    std::string cpu;
    f >> cpu;
    std::vector<double> v;
    double x = 0;
    while (v.size() < 8 && f >> x)
        v.push_back(x);
    return v;
}

double
stealPctSince(const std::vector<double> &since)
{
    const std::vector<double> now = cpuTimes();
    double total = 0, steal = 0;
    if (now.size() == 8 && since.size() == 8) {
        for (size_t i = 0; i < 8; ++i)
            total += now[i] - since[i];
        steal = now[7] - since[7];
    }
    return total > 0 ? 100 * steal / total : 0;
}

std::string
hostFactsJson(int threads_used, const std::vector<double> &cpu_at_start)
{
    std::ostringstream os;
    os << "{\"nproc\":" << std::thread::hardware_concurrency()
       << ",\"cpu\":\"" << jsonEscape(cpuModel()) << "\""
       << ",\"l2\":\"" << jsonEscape(cacheFacts("2")) << "\""
       << ",\"l3\":\"" << jsonEscape(cacheFacts("3")) << "\""
       << ",\"threads_used\":" << threads_used
       << ",\"build\":\"" << PERFBENCH_BUILD_TYPE << "\""
       << ",\"lpn_kernel\":\""
       << jsonEscape(kernelNameOf<ironman::ot::LpnEncoder>()) << "\""
       << ",\"lpn_prefetch\":"
       << (ironman::ot::detail::lpnPrefetchEnabled() ? "true" : "false")
       << ",\"steal_pct\":" << stealPctSince(cpu_at_start)
       << "}";
    return os.str();
}

double
ticksPerSecond()
{
    static const double tps = [] {
#ifdef PERFBENCH_HAVE_TSC
        const double t0 = nowMs();
        const uint64_t c0 = __rdtsc();
        while (nowMs() - t0 < 50) {
        }
        return double(__rdtsc() - c0) / ((nowMs() - t0) / 1000.0);
#else
        return 1e9;
#endif
    }();
    return tps;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const size_t lo = size_t(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

void
resetPeakRss()
{
#ifdef __GLIBC__
    malloc_trim(0);
#endif
    std::ofstream("/proc/self/clear_refs") << "5";
}

double
peakRssMib()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

bool
allCorrelationsHold(const Block *q, const Block *t, const BitVec &choice,
                    const Block &delta, size_t n)
{
    if (choice.size() < n)
        return false;
    for (size_t i = 0; i < n; ++i)
        if (!correlationHolds(q[i], t[i], choice.get(i), delta))
            return false;
    return true;
}

std::vector<uint32_t>
sampleIndices(uint64_t seed, size_t n, size_t count)
{
    std::mt19937_64 rng(seed);
    std::set<uint32_t> picked;
    count = std::min(count, n);
    while (picked.size() < count)
        picked.insert(uint32_t(rng() % n));
    return {picked.begin(), picked.end()};
}

} // namespace perfbench
