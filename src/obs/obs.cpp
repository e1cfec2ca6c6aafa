#include "obs/obs.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/json.h"

namespace con::obs {

namespace detail {
std::atomic<bool> g_tracing{false};
}  // namespace detail

namespace {

using steady = std::chrono::steady_clock;

steady::time_point trace_origin() {
  static const steady::time_point origin = steady::now();
  return origin;
}

// One thread's span storage. Owned jointly by the thread (thread_local
// shared_ptr) and the process-wide registry, so events survive thread exit
// — pool workers need no flush before the pool is torn down.
struct ThreadRing {
  int tid = 0;
  std::string thread_name;
  std::vector<SpanEvent> events;  // reserved to kRingCapacity up front
  std::uint64_t dropped = 0;
  std::int32_t depth = 0;

  explicit ThreadRing(int id) : tid(id), thread_name("thread-" + std::to_string(id)) {
    events.reserve(kRingCapacity);
  }
};

struct Registry {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadRing>> rings;
};

Registry& registry() {
  static Registry* reg = new Registry();  // leaked: usable during exit
  return *reg;
}

ThreadRing& this_ring() {
  thread_local std::shared_ptr<ThreadRing> ring = [] {
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    auto r = std::make_shared<ThreadRing>(static_cast<int>(reg.rings.size()));
    reg.rings.push_back(r);
    return r;
  }();
  return *ring;
}

void copy_name(char* dst, const char* name, const std::string* base) {
  std::size_t n = 0;
  if (base != nullptr) {
    const std::size_t bn = std::min(base->size(), kSpanNameCap - 2);
    std::memcpy(dst, base->data(), bn);
    n = bn;
    dst[n++] = '.';
  }
  while (n < kSpanNameCap - 1 && *name != '\0') dst[n++] = *name++;
  dst[n] = '\0';
}

}  // namespace

void set_tracing(bool enabled) {
  trace_origin();  // latch the origin before the first event
  detail::g_tracing.store(enabled, std::memory_order_relaxed);
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(steady::now() -
                                                           trace_origin())
          .count());
}

double elapsed_seconds() {
  return std::chrono::duration<double>(steady::now() - trace_origin()).count();
}

int this_thread_id() { return this_ring().tid; }

void set_thread_name(const std::string& name) {
  ThreadRing& ring = this_ring();
  // Exporters read the name from another thread under the registry lock, and
  // a pool worker that never picks up a chunk has no other synchronization
  // edge with the exporting thread — so the write must take the same lock.
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  ring.thread_name = name;
}

void Span::begin(const char* name, const std::string* base) {
  copy_name(name_, name, base);
  ThreadRing& ring = this_ring();
  ++ring.depth;
  active_ = true;
  start_ns_ = now_ns();
}

void Span::end() {
  const std::uint64_t end_ns = now_ns();
  ThreadRing& ring = this_ring();
  const std::int32_t depth = --ring.depth;
  // Recording at span exit keeps the hot path a single vector append; the
  // exporter needs no per-thread ordering beyond what timestamps carry.
  if (ring.events.size() < kRingCapacity) {
    SpanEvent& ev = ring.events.emplace_back();
    std::memcpy(ev.name, name_, kSpanNameCap);
    ev.start_ns = start_ns_;
    ev.end_ns = end_ns;
    ev.depth = depth;
  } else {
    ++ring.dropped;
  }
}

std::string chrome_trace_json() {
  Json events = Json::array();
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (const auto& ring : reg.rings) {
    Json meta = Json::object();
    meta.set("name", "thread_name");
    meta.set("ph", "M");
    meta.set("pid", 1);
    meta.set("tid", ring->tid);
    Json args = Json::object();
    args.set("name", ring->thread_name);
    meta.set("args", std::move(args));
    events.push_back(std::move(meta));
    for (const SpanEvent& ev : ring->events) {
      Json e = Json::object();
      e.set("name", std::string(ev.name));
      e.set("ph", "X");
      e.set("ts", static_cast<double>(ev.start_ns) / 1000.0);
      e.set("dur", static_cast<double>(ev.end_ns - ev.start_ns) / 1000.0);
      e.set("pid", 1);
      e.set("tid", ring->tid);
      Json eargs = Json::object();
      eargs.set("depth", static_cast<std::int64_t>(ev.depth));
      e.set("args", std::move(eargs));
      events.push_back(std::move(e));
    }
  }
  Json doc = Json::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  return doc.dump();
}

bool write_chrome_trace(const std::string& path) {
  const std::string body = chrome_trace_json();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok =
      std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::fclose(f);
  return ok;
}

std::size_t trace_event_count() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::size_t n = 0;
  for (const auto& ring : reg.rings) n += ring->events.size();
  return n;
}

std::uint64_t trace_dropped_count() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::uint64_t n = 0;
  for (const auto& ring : reg.rings) n += ring->dropped;
  return n;
}

std::vector<RingDropCount> trace_ring_drops() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::vector<RingDropCount> out;
  out.reserve(reg.rings.size());
  for (const auto& ring : reg.rings) {
    out.push_back({ring->tid, ring->thread_name, ring->dropped});
  }
  return out;
}

namespace {

struct PhaseState {
  std::mutex mu;
  std::string phase;
};

PhaseState& phase_state() {
  static PhaseState* state = new PhaseState();  // leaked: usable during exit
  return *state;
}

}  // namespace

void set_phase(const std::string& phase) {
  PhaseState& st = phase_state();
  std::lock_guard<std::mutex> lock(st.mu);
  st.phase = phase;
}

std::string current_phase() {
  PhaseState& st = phase_state();
  std::lock_guard<std::mutex> lock(st.mu);
  return st.phase;
}

ScopedPhase::ScopedPhase(const std::string& phase) {
  PhaseState& st = phase_state();
  std::lock_guard<std::mutex> lock(st.mu);
  prev_ = st.phase;
  st.phase = phase;
}

ScopedPhase::~ScopedPhase() {
  PhaseState& st = phase_state();
  std::lock_guard<std::mutex> lock(st.mu);
  st.phase = prev_;
}

void clear_trace() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (const auto& ring : reg.rings) {
    ring->events.clear();
    ring->dropped = 0;
  }
}

}  // namespace con::obs
