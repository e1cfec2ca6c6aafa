#include "obs/manifest.h"

#include <cmath>
#include <cstdio>
#include <ctime>

#include "obs/obs.h"

namespace con::obs {

const std::string& git_describe() {
  static const std::string described = [] {
    std::string out = "unknown";
    std::FILE* p = ::popen("git describe --always --dirty 2>/dev/null", "r");
    if (p != nullptr) {
      char buf[128];
      if (std::fgets(buf, sizeof(buf), p) != nullptr) {
        std::string line(buf);
        while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
          line.pop_back();
        }
        if (!line.empty()) out = line;
      }
      ::pclose(p);
    }
    return out;
  }();
  return described;
}

Json counters_json(
    const MetricsSnapshot& snap,
    const std::vector<std::pair<std::string, std::uint64_t>>& extra_counters) {
  Json counters = Json::object();
  for (const auto& [name, value] : snap.counters) counters.set(name, value);
  for (const auto& [name, value] : extra_counters) counters.set(name, value);
  return counters;
}

Json distributions_json(const MetricsSnapshot& snap) {
  Json dists = Json::object();
  for (const auto& d : snap.distributions) {
    Json entry = Json::object();
    entry.set("count", d.count);
    entry.set("sum", d.sum);
    entry.set("min", d.min);
    entry.set("max", d.max);
    const double mean =
        d.count == 0 ? 0.0 : d.sum / static_cast<double>(d.count);
    entry.set("mean", mean);
    const double var =
        d.count == 0
            ? 0.0
            : d.sumsq / static_cast<double>(d.count) - mean * mean;
    entry.set("stddev", var > 0.0 ? std::sqrt(var) : 0.0);
    entry.set("p50", Distribution::percentile_of(d.buckets, 0.50));
    entry.set("p90", Distribution::percentile_of(d.buckets, 0.90));
    entry.set("p99", Distribution::percentile_of(d.buckets, 0.99));
    entry.set("p999", Distribution::percentile_of(d.buckets, 0.999));
    Json buckets = Json::array();
    for (std::size_t i = 0; i < d.buckets.size(); ++i) {
      if (d.buckets[i] == 0) continue;
      Json pair = Json::array();
      pair.push_back(static_cast<std::int64_t>(i));
      pair.push_back(d.buckets[i]);
      buckets.push_back(std::move(pair));
    }
    entry.set("buckets", std::move(buckets));
    dists.set(d.name, std::move(entry));
  }
  return dists;
}

Json manifest_json(const RunManifest& m) {
  Json doc = Json::object();
  doc.set("name", m.name);
  doc.set("timestamp_unix",
          static_cast<std::int64_t>(std::time(nullptr)));
  doc.set("git", git_describe());
  doc.set("wall_time_s", m.wall_time_s);
  doc.set("threads", static_cast<std::int64_t>(m.threads));

  Json config = Json::object();
  for (const auto& [key, value] : m.config) config.set(key, value);
  doc.set("config", std::move(config));

  // Trace-ring drop accounting: dropped spans were counted but invisible
  // unless a Chrome trace was exported — surface them so obs_validate can
  // warn that the run's trace is incomplete.
  Json trace = Json::object();
  std::uint64_t dropped_total = 0;
  Json by_thread = Json::object();
  for (const RingDropCount& rd : trace_ring_drops()) {
    dropped_total += rd.dropped;
    if (rd.dropped > 0) {
      by_thread.set(rd.thread_name + " (t" + std::to_string(rd.tid) + ")",
                    rd.dropped);
    }
  }
  trace.set("dropped_total", dropped_total);
  trace.set("dropped_by_thread", std::move(by_thread));
  doc.set("trace", std::move(trace));

  const MetricsSnapshot snap = snapshot_metrics();
  Json metrics = Json::object();
  metrics.set("counters", counters_json(snap, m.extra_counters));
  metrics.set("distributions", distributions_json(snap));
  doc.set("metrics", std::move(metrics));
  return doc;
}

std::string write_manifest(const RunManifest& m, const std::string& dir) {
  const std::string path = dir + "/" + m.name + "_manifest.json";
  const std::string body = manifest_json(m).dump(/*indent=*/2);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return "";
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size() &&
                  std::fputc('\n', f) != EOF;
  std::fclose(f);
  return ok ? path : "";
}

}  // namespace con::obs
