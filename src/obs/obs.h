// Low-overhead tracing: RAII scoped spans in thread-local ring buffers.
//
// Design constraints (DESIGN.md §6):
//  - Tracing off (the default): a span costs ONE relaxed atomic load and a
//    branch. No clock reads, no stores, no locks, no allocation.
//  - Tracing on: a span costs two steady_clock reads plus a ~64-byte write
//    into a preallocated thread-local ring. Still no locks and no heap
//    allocation on the record path — the ring is allocated once, the first
//    time a thread records (or names itself), and span names are copied
//    into a fixed-size field rather than stored as pointers so the trace
//    survives the named object (a layer, a model) being destroyed.
//  - A full ring drops new events and counts the drops; it never blocks
//    and never reallocates.
//
// Rings are registered process-wide and outlive their threads, so pool
// workers need no explicit flush: their events stay readable after the
// worker exits. The exporter (write_chrome_trace) and clear_trace() must
// only run while no thread is actively recording — every bench/example
// quiesces (joins its parallel work) before exporting.
//
// Timestamps are steady-clock nanoseconds since a process-wide origin
// (fixed at first use); util::log lines carry the same clock so logs and
// traces correlate.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace con::obs {

namespace detail {
extern std::atomic<bool> g_tracing;
}  // namespace detail

// ---- global switches --------------------------------------------------------

inline bool tracing_enabled() {
  return detail::g_tracing.load(std::memory_order_relaxed);
}
void set_tracing(bool enabled);

// ---- clock ------------------------------------------------------------------

// Steady-clock nanoseconds since the process trace origin. The origin is
// latched on first call (process start for all practical purposes: the
// logger touches it on its first line).
std::uint64_t now_ns();
// Same clock, in seconds — the timestamp prefixed to every log line.
double elapsed_seconds();

// ---- per-thread identity ----------------------------------------------------

// Small dense id for the calling thread (0, 1, 2, ... in first-use order);
// used as the `tid` of trace events and in log-line prefixes.
int this_thread_id();
// Label the calling thread in trace exports ("pool-3", "main"). Creates the
// thread's ring if needed — call it from thread entry points so even a
// thread that never records a span shows up named.
void set_thread_name(const std::string& name);

// ---- spans ------------------------------------------------------------------

// Span names are truncated to this many characters (including the NUL).
inline constexpr std::size_t kSpanNameCap = 48;
// Events a thread can hold before dropping (preallocated per thread on
// first record).
inline constexpr std::size_t kRingCapacity = 1 << 16;

struct SpanEvent {
  char name[kSpanNameCap];
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int32_t depth = 0;  // nesting depth at entry; top-level spans are 0
};

class Span {
 public:
  explicit Span(const char* name) {
    if (tracing_enabled()) begin(name, nullptr);
  }
  // Two-part name "<base>.<suffix>" without building a std::string at the
  // call site (layer spans: Span(layer.name(), "forward")).
  Span(const std::string& base, const char* suffix) {
    if (tracing_enabled()) begin(suffix, &base);
  }
  ~Span() {
    if (active_) end();
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void begin(const char* name, const std::string* base);
  void end();

  bool active_ = false;
  std::uint64_t start_ns_ = 0;
  char name_[kSpanNameCap];
};

// ---- export -----------------------------------------------------------------

// Chrome trace_event JSON (the "JSON Array Format" with a traceEvents
// wrapper) — load it in Perfetto (ui.perfetto.dev) or chrome://tracing.
// One complete ("ph":"X") event per recorded span plus thread-name
// metadata. Caller must quiesce recording first.
std::string chrome_trace_json();
// Writes chrome_trace_json() to `path`; returns false (and logs) on I/O
// failure.
bool write_chrome_trace(const std::string& path);

// Total events currently held across all rings, and events dropped because
// a ring was full.
std::size_t trace_event_count();
std::uint64_t trace_dropped_count();

// Per-thread drop accounting, for run manifests: a nonzero entry means that
// thread's trace is incomplete (the ring filled and newer spans were
// discarded), which obs_validate surfaces as a warning.
struct RingDropCount {
  int tid = 0;
  std::string thread_name;
  std::uint64_t dropped = 0;
};
// One entry per registered ring, in tid order (zero-drop rings included).
std::vector<RingDropCount> trace_ring_drops();

// ---- phase ------------------------------------------------------------------

// Coarse "what is the process doing right now" label, reported by the
// telemetry sampler and the stats server. Set it at top-level operations
// (baseline training, sweeps) from the orchestrating thread; it is
// observational only and never feeds results.
void set_phase(const std::string& phase);
std::string current_phase();

// RAII phase scope: restores the previous phase on exit.
class ScopedPhase {
 public:
  explicit ScopedPhase(const std::string& phase);
  ~ScopedPhase();
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  std::string prev_;
};

// Discard all recorded events (rings stay allocated). Caller must quiesce
// recording first.
void clear_trace();

}  // namespace con::obs
