// Per-run JSON manifests: the machine-readable record every bench and
// example drops next to its CSVs.
//
// A manifest answers "what exactly did this run do": the resolved
// configuration (flags, seed, thread count, baseline cache key), the build
// (git describe), wall time, and a full metrics snapshot (every counter and
// distribution in the registry at write time). Two runs are comparable iff
// their config sections match; the counter section is then expected to be
// identical for any --threads value (see metrics.h).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"

namespace con::obs {

struct RunManifest {
  std::string name;  // bench/example name; file is <name>_manifest.json
  double wall_time_s = 0.0;
  std::size_t threads = 1;
  // Resolved configuration, in insertion order (network, sizes, seed, ...).
  std::vector<std::pair<std::string, Json>> config;
  // Extra top-level counters that live outside the obs registry
  // (e.g. tensor.buffer_allocations).
  std::vector<std::pair<std::string, std::uint64_t>> extra_counters;
};

// The manifest as a JSON tree: name, timestamp, git, wall time, threads,
// config object, trace drop accounting, metrics {counters, distributions}.
Json manifest_json(const RunManifest& m);

// Section emitters, shared between manifests, the telemetry sampler and the
// stats server so "the same snapshot" really is byte-identical wherever it
// is serialized. counters_json appends `extra_counters` after the sorted
// registry counters, exactly like the manifest's counter section.
Json counters_json(
    const MetricsSnapshot& snap,
    const std::vector<std::pair<std::string, std::uint64_t>>& extra_counters);
// Distributions carry count/sum/min/max, derived mean and stddev (both 0
// when empty; stddev is the population form sqrt(E[x²] − E[x]²)),
// p50/p90/p99/p999 upper-bucket-bound percentiles, and the non-zero
// buckets as [index, count] pairs.
Json distributions_json(const MetricsSnapshot& snap);

// Writes manifest_json() pretty-printed to <dir>/<name>_manifest.json and
// returns the path ("" on I/O failure).
std::string write_manifest(const RunManifest& m, const std::string& dir);

// `git describe --always --dirty` of the working tree, cached after the
// first call; "unknown" when git (or the repo) is unavailable.
const std::string& git_describe();

}  // namespace con::obs
