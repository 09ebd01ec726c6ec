#include "obs/trace.hpp"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <cpuid.h>
#include <x86intrin.h>
#define ELREC_TRACE_TSC 1
#endif

#include "common/thread_annotations.hpp"

namespace elrec::obs {

namespace {

bool env_trace_enabled() {
  const char* v = std::getenv("ELREC_TRACING");
  if (v == nullptr) return true;
  return !(std::strcmp(v, "0") == 0 || std::strcmp(v, "off") == 0 ||
           std::strcmp(v, "OFF") == 0 || std::strcmp(v, "false") == 0);
}

// Owns every thread's ring so retained events survive thread exit (the
// exporter runs after workers are joined). Buffers are handed out once per
// thread and cached in a thread_local raw pointer.
struct TraceRegistry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadTraceBuffer>> buffers ELREC_GUARDED_BY(mu);
  std::size_t capacity = 8192;

  static TraceRegistry& get() {
    static TraceRegistry* registry = new TraceRegistry();  // never destroyed:
    // worker threads may outlive static destruction order otherwise.
    return *registry;
  }

  ThreadTraceBuffer* register_thread() {
    std::lock_guard lock(mu);
    buffers.push_back(std::make_unique<ThreadTraceBuffer>(
        static_cast<std::uint32_t>(buffers.size()), capacity));
    return buffers.back().get();
  }
};

thread_local ThreadTraceBuffer* t_buffer = nullptr;

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Span timestamps. Where the CPU's TSC is invariant (constant rate across
// P- and C-states, synchronized across cores) a span reads it instead of
// steady_clock::now(), which costs about twice as much, and maps ticks
// onto the steady clock's nanoseconds with a rate measured once, at the
// first enabled span. Elsewhere spans read the steady clock.
struct SpanClock {
  bool use_tsc = false;
  std::uint64_t tsc0 = 0;
  std::uint64_t ns0 = 0;
  double ns_per_tick = 0.0;
};

#if defined(ELREC_TRACE_TSC)
bool invariant_tsc() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid(0x80000000u, &a, &b, &c, &d) == 0 || a < 0x80000007u) {
    return false;
  }
  __get_cpuid(0x80000007u, &a, &b, &c, &d);
  return (d & (1u << 8)) != 0;
}

// One (tick, ns) pair, from the attempt whose two TSC reads bracket the
// steady-clock read most tightly, so a preemption between the reads
// cannot skew the rate.
void paired_read(std::uint64_t& tick, std::uint64_t& ns) {
  std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t t0 = __rdtsc();
    const std::uint64_t n = steady_now_ns();
    const std::uint64_t t1 = __rdtsc();
    if (t1 >= t0 && t1 - t0 < best) {
      best = t1 - t0;
      tick = t0 + (t1 - t0) / 2;
      ns = n;
    }
  }
}
#endif

SpanClock calibrate_span_clock() {
  SpanClock clock;
#if defined(ELREC_TRACE_TSC)
  if (!invariant_tsc()) return clock;
  std::uint64_t tick_a = 0, ns_a = 0, tick_b = 0, ns_b = 0;
  paired_read(tick_a, ns_a);
  // 2 ms between the pairs: a ~50 ns pair bracket is a 2.5e-5 rate error.
  while (steady_now_ns() - ns_a < 2'000'000) {
  }
  paired_read(tick_b, ns_b);
  if (tick_b <= tick_a || ns_b <= ns_a) return clock;
  clock.use_tsc = true;
  clock.tsc0 = tick_a;
  clock.ns0 = ns_a;
  clock.ns_per_tick = static_cast<double>(ns_b - ns_a) /
                      static_cast<double>(tick_b - tick_a);
#endif
  return clock;
}

}  // namespace

namespace detail {

std::atomic<bool> g_trace_enabled{env_trace_enabled()};

std::uint64_t trace_now_ns() {
  static const SpanClock clock = calibrate_span_clock();
#if defined(ELREC_TRACE_TSC)
  if (clock.use_tsc) {
    const auto ticks = static_cast<std::int64_t>(__rdtsc() - clock.tsc0);
    return clock.ns0 + static_cast<std::uint64_t>(static_cast<std::int64_t>(
                           static_cast<double>(ticks) * clock.ns_per_tick));
  }
#endif
  return steady_now_ns();
}

void record_span(const char* name, std::uint64_t start_ns,
                 std::uint64_t dur_ns) {
  ThreadTraceBuffer* buf = t_buffer;
  if (buf == nullptr) {
    buf = TraceRegistry::get().register_thread();
    t_buffer = buf;
  }
  buf->push(name, start_ns, dur_ns);
}

std::vector<const ThreadTraceBuffer*> all_buffers() {
  TraceRegistry& reg = TraceRegistry::get();
  std::lock_guard lock(reg.mu);
  std::vector<const ThreadTraceBuffer*> out;
  out.reserve(reg.buffers.size());
  for (const auto& b : reg.buffers) out.push_back(b.get());
  return out;
}

}  // namespace detail

void set_trace_enabled(bool enabled) {
  detail::g_trace_enabled.store(enabled, std::memory_order_relaxed);
}

void set_trace_capacity(std::size_t events) {
  TraceRegistry& reg = TraceRegistry::get();
  std::lock_guard lock(reg.mu);
  reg.capacity = events > 0 ? events : 1;
}

void clear_trace() {
  TraceRegistry& reg = TraceRegistry::get();
  std::lock_guard lock(reg.mu);
  for (auto& b : reg.buffers) b->clear();
}

TraceStats trace_stats() {
  TraceStats s;
  for (const ThreadTraceBuffer* b : detail::all_buffers()) {
    ++s.threads;
    s.events_retained += b->size();
    s.events_dropped += b->dropped();
  }
  return s;
}

}  // namespace elrec::obs
