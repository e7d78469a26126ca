#include "obs/crash_dump.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>

#include "obs/flight_recorder.hpp"
#include "util/text.hpp"

namespace wss::obs {
namespace {

constexpr int kSignals[] = {SIGSEGV, SIGABRT, SIGBUS};
constexpr std::size_t kNumSignals = sizeof(kSignals) / sizeof(kSignals[0]);
/// Last events dumped per thread (the ring may hold more).
constexpr std::uint64_t kDumpEvents = 64;

char g_path[512] = {};
char g_tool[64] = {};
std::atomic<std::uint64_t> g_identity{0};
std::atomic<bool> g_installed{false};
std::atomic<bool> g_written{false};
struct sigaction g_old_actions[kNumSignals];

/// Minimal async-signal-safe JSON emitter: every method bottoms out
/// in write(2) on an O_APPEND-free fd, no allocation, no locks.
class SafeWriter
{
  public:
    explicit SafeWriter(int fd) : fd_(fd) {}

    void
    raw(const char *s)
    {
        std::size_t n = 0;
        while (s[n] != '\0')
            ++n;
        rawN(s, n);
    }

    void
    rawN(const char *s, std::size_t n)
    {
        while (n > 0) {
            const ssize_t w = ::write(fd_, s, n);
            if (w <= 0)
                return;
            s += static_cast<std::size_t>(w);
            n -= static_cast<std::size_t>(w);
        }
    }

    void
    u64(std::uint64_t v)
    {
        char buf[24];
        int i = sizeof(buf);
        do {
            buf[--i] = static_cast<char>('0' + v % 10);
            v /= 10;
        } while (v != 0);
        rawN(buf + i, sizeof(buf) - static_cast<std::size_t>(i));
    }

    void
    i64(std::int64_t v)
    {
        if (v < 0) {
            raw("-");
            // Negate via unsigned so INT64_MIN does not overflow.
            u64(~static_cast<std::uint64_t>(v) + 1);
        } else {
            u64(static_cast<std::uint64_t>(v));
        }
    }

    void
    hex64(std::uint64_t v)
    {
        char buf[16];
        int i = sizeof(buf);
        do {
            buf[--i] = "0123456789abcdef"[v & 0xf];
            v >>= 4;
        } while (v != 0);
        raw("0x");
        rawN(buf + i, sizeof(buf) - static_cast<std::size_t>(i));
    }

    /// Fixed-point seconds with 6 fractional digits; non-finite or
    /// absurd values degrade to 0 rather than corrupting the JSON.
    void
    seconds(double v)
    {
        if (!(v > -9.0e12) || !(v < 9.0e12))
            v = 0.0;
        if (v < 0) {
            raw("-");
            v = -v;
        }
        const std::uint64_t micros =
            static_cast<std::uint64_t>(v * 1.0e6 + 0.5);
        u64(micros / 1000000);
        raw(".");
        char frac[6];
        std::uint64_t rem = micros % 1000000;
        for (int i = 5; i >= 0; --i) {
            frac[i] = static_cast<char>('0' + rem % 10);
            rem /= 10;
        }
        rawN(frac, 6);
    }

    /// Quoted string; control chars, '"' and '\\' become '_', input
    /// is clamped to @p max_len bytes.
    void
    str(const char *s, std::size_t max_len)
    {
        raw("\"");
        char buf[64];
        std::size_t n = 0;
        for (std::size_t i = 0; i < max_len && s[i] != '\0'; ++i) {
            const unsigned char c = static_cast<unsigned char>(s[i]);
            buf[n++] = (c < 0x20 || c > 0x7e || c == '"' || c == '\\')
                           ? '_'
                           : static_cast<char>(c);
            if (n == sizeof(buf)) {
                rawN(buf, n);
                n = 0;
            }
        }
        rawN(buf, n);
        raw("\"");
    }

  private:
    int fd_;
};

const char *
signalName(int sig)
{
    switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGABRT: return "SIGABRT";
    case SIGBUS: return "SIGBUS";
    case 0: return "none";
    }
    return "signal";
}

void
writeThread(SafeWriter &w, ThreadRing *ring)
{
    w.raw("{\"label\": ");
    w.str(ring->label(), 32);
    const std::uint64_t written = ring->written();
    w.raw(", \"events_recorded\": ");
    w.u64(written);
    w.raw(", \"open_phases\": [");
    const int depth = ring->phaseDepth();
    const int named = std::min(depth, ThreadRing::kMaxPhaseDepth);
    for (int p = 0; p < named; ++p) {
        if (p > 0)
            w.raw(", ");
        w.str(ring->phaseName(p), ThreadRing::kPhaseNameCap);
    }
    w.raw("], \"open_phase_depth\": ");
    w.i64(depth);
    w.raw(", \"events\": [");
    const std::uint64_t window = std::min<std::uint64_t>(
        {kDumpEvents, ring->capacity(), written});
    for (std::uint64_t k = 0; k < window; ++k) {
        const FlightEvent &e = ring->slot(written - window + k);
        if (k > 0)
            w.raw(", ");
        w.raw("{\"t_s\": ");
        w.seconds(e.t);
        w.raw(", \"kind\": ");
        w.str(eventKindName(static_cast<EventKind>(e.kind)), 24);
        w.raw(", \"a\": ");
        w.i64(e.a);
        w.raw(", \"b\": ");
        w.i64(e.b);
        w.raw(", \"tag\": ");
        w.str(e.tag, sizeof(e.tag));
        w.raw("}");
    }
    w.raw("]}");
}

void
crashSignalHandler(int sig)
{
    CrashDump::writeNow(signalName(sig), sig);
    // Restore the default disposition and re-raise so the process
    // still dies with the original signal's exit status.
    ::signal(sig, SIG_DFL);
    ::raise(sig);
}

} // namespace

void
CrashDump::install(const std::string &path)
{
    if (g_installed.exchange(true, std::memory_order_acq_rel))
        return;
    util::copyTruncated(g_path, sizeof(g_path), path);
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = &crashSignalHandler;
    sigemptyset(&sa.sa_mask);
    for (std::size_t i = 0; i < kNumSignals; ++i)
        ::sigaction(kSignals[i], &sa, &g_old_actions[i]);
}

bool
CrashDump::installed()
{
    return g_installed.load(std::memory_order_acquire);
}

void
CrashDump::setTool(std::string_view tool)
{
    util::copyTruncated(g_tool, sizeof(g_tool), tool);
}

void
CrashDump::setIdentity(std::uint64_t hash)
{
    g_identity.store(hash, std::memory_order_relaxed);
}

bool
CrashDump::writeNow(const char *reason, int sig)
{
    if (!installed() || g_path[0] == '\0')
        return false;
    if (g_written.exchange(true, std::memory_order_acq_rel))
        return false;
    const int fd = ::open(g_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        return false;
    SafeWriter w(fd);
    w.raw("{\n  \"wss_crash_report\": 1,\n  \"reason\": ");
    w.str(reason != nullptr ? reason : "", 256);
    w.raw(",\n  \"signal\": ");
    w.i64(sig);
    w.raw(",\n  \"signal_name\": ");
    w.str(signalName(sig), 16);
    w.raw(",\n  \"tool\": ");
    w.str(g_tool, sizeof(g_tool));
    w.raw(",\n  \"identity_hash\": \"");
    w.hex64(g_identity.load(std::memory_order_relaxed));
    w.raw("\",\n  \"uptime_s\": ");
    w.seconds(FlightRecorder::now());
    w.raw(",\n  \"counters\": {");
    for (std::uint16_t k = 0;
         k < static_cast<std::uint16_t>(EventKind::kCount); ++k) {
        if (k > 0)
            w.raw(", ");
        w.raw("\"");
        w.raw(eventKindName(static_cast<EventKind>(k)));
        w.raw("\": ");
        w.u64(FlightRecorder::kindCount(static_cast<EventKind>(k)));
    }
    w.raw("},\n  \"threads\": [");
    const std::size_t rings = FlightRecorder::ringCount();
    for (std::size_t i = 0; i < rings; ++i) {
        ThreadRing *ring = FlightRecorder::ring(i);
        if (ring == nullptr)
            continue;
        if (i > 0)
            w.raw(",\n    ");
        else
            w.raw("\n    ");
        writeThread(w, ring);
    }
    w.raw("\n  ]\n}\n");
    ::close(fd);
    return true;
}

const char *
CrashDump::path()
{
    return g_path;
}

void
CrashDump::resetForTesting()
{
    if (g_installed.exchange(false, std::memory_order_acq_rel)) {
        for (std::size_t i = 0; i < kNumSignals; ++i)
            ::sigaction(kSignals[i], &g_old_actions[i], nullptr);
    }
    g_path[0] = '\0';
    g_tool[0] = '\0';
    g_identity.store(0, std::memory_order_relaxed);
    g_written.store(false, std::memory_order_release);
}

} // namespace wss::obs
