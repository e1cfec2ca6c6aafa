// Validates the JSON artifacts the observability subsystem emits, so the
// trace-smoke / bench-smoke ctest hooks catch exporter rot:
//
//   obs_validate [--trace trace.json] [--manifest run_manifest.json]
//                [--telemetry samples.jsonl]
//
// A trace must parse as strict JSON, contain a non-empty traceEvents array
// with at least one complete ("X") span carrying the Chrome trace_event
// envelope, and name every thread via "M" metadata. A manifest must carry
// the keys downstream comparison tooling relies on: name, git, wall time,
// threads, a config object, a non-empty metrics.counters object and a
// metrics.distributions object whose entries each carry count and p50 —
// including the artifact-store section (store.hit / store.miss /
// store.evict / store.gc_bytes), which bench::finish_run guarantees in
// every manifest. With --expect-store-hits-only the manifest must describe
// a fully warm run: store.miss == 0 and store.hit > 0, and no attack or
// training work — attack.chunks and model.backward_calls absent or 0 (the
// assertion the store_smoke ctests make about their second pass). With
// --expect-integer-path the manifest must prove the run actually exercised
// the deployed int8 backend: at least one gemm.dispatch.int8.* counter
// positive plus the requantize.quant_i8 input-quantisation counter and at
// least one requantize.{col,row}_bias output-stage counter — an integer
// "measurement" that silently fell back to the fake-quant float path
// leaves all of these at zero and must fail loudly.
//
// A telemetry file (--telemetry) must be JSONL with strictly sequential
// "seq" numbers from 0, nondecreasing elapsed_s, a counters_delta object on
// every periodic record, and a last record marked "final": true carrying
// full counters and distributions sections. When --telemetry and
// --manifest are both given, the final record's counters object must
// serialize to exactly the same bytes as the manifest's metrics.counters —
// the sampler quiesce contract (obs/sampler.h). A manifest whose
// trace.dropped_total is positive prints a WARNING (the ring was sized too
// small for the run) but still validates.
// Exit 0 when everything named on the command line validates; 1 otherwise.
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/json.h"
#include "util/cli.h"

namespace {

using con::obs::Json;

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw std::runtime_error("cannot open " + path);
  std::string text;
  char buf[1 << 16];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, got);
  std::fclose(f);
  return text;
}

void require(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error(what);
}

// A distributions section: an object whose entries each carry count and
// p50.
void validate_distributions(const Json* dists, const std::string& where) {
  require(dists != nullptr && dists->kind() == Json::Kind::kObject,
          where + " missing distributions object");
  for (const auto& [name, entry] : dists->members()) {
    for (const char* key : {"count", "p50"}) {
      require(entry.find(key) != nullptr,
              where + " distribution " + name + " missing " + key);
    }
  }
}

void validate_trace(const std::string& path) {
  const Json doc = con::obs::parse_json(read_file(path));
  const Json* events = doc.find("traceEvents");
  require(events != nullptr && events->kind() == Json::Kind::kArray,
          "missing traceEvents array");
  std::size_t spans = 0, metadata = 0;
  for (const Json& e : events->items()) {
    const Json* ph = e.find("ph");
    require(e.find("name") != nullptr && ph != nullptr &&
                e.find("pid") != nullptr && e.find("tid") != nullptr,
            "event missing name/ph/pid/tid");
    if (ph->as_string() == "X") {
      require(e.find("ts") != nullptr && e.find("dur") != nullptr,
              "X event missing ts/dur");
      require(e.find("dur")->as_double() >= 0.0, "negative span duration");
      ++spans;
    } else if (ph->as_string() == "M") {
      ++metadata;
    }
  }
  require(spans > 0, "no span (\"X\") events — tracing recorded nothing");
  require(metadata > 0, "no thread_name (\"M\") metadata events");
  std::printf("obs_validate: %s OK (%zu spans, %zu thread names)\n",
              path.c_str(), spans, metadata);
}

// Sum of a counter family, tolerating absent members (a scalar-only run
// has no avx2 dispatch counts).
std::int64_t counter_or_zero(const Json& counters, const char* key) {
  const Json* c = counters.find(key);
  return c == nullptr ? 0 : c->as_int();
}

void validate_integer_path(const Json& counters) {
  const std::int64_t dispatched =
      counter_or_zero(counters, "gemm.dispatch.int8.scalar") +
      counter_or_zero(counters, "gemm.dispatch.int8.avx2");
  require(dispatched > 0,
          "no gemm.dispatch.int8.* counts — the run never entered an int8 "
          "GEMM");
  require(counter_or_zero(counters, "requantize.quant_i8") > 0,
          "requantize.quant_i8 == 0 — inputs were never quantised to codes");
  require(counter_or_zero(counters, "requantize.col_bias") +
                  counter_or_zero(counters, "requantize.row_bias") >
              0,
          "no requantize.{col,row}_bias counts — int8 accumulators were "
          "never requantised");
}

void validate_manifest(const std::string& path, bool expect_store_hits_only,
                       bool expect_integer_path) {
  const Json doc = con::obs::parse_json(read_file(path));
  for (const char* key : {"name", "timestamp_unix", "git", "wall_time_s",
                          "threads", "config", "metrics"}) {
    require(doc.find(key) != nullptr, std::string("missing key ") + key);
  }
  require(!doc.find("name")->as_string().empty(), "empty run name");
  require(doc.find("threads")->as_int() >= 1, "threads < 1");
  require(doc.find("config")->kind() == Json::Kind::kObject,
          "config is not an object");
  // Every manifest must say which micro-kernel ISA produced it: a perf or
  // accuracy number without its kernel ISA is not reproducible.
  const Json* kernel_isa = doc.find("config")->find("kernel_isa");
  require(kernel_isa != nullptr, "missing config.kernel_isa");
  {
    const std::string isa = kernel_isa->as_string();
    require(isa == "scalar" || isa == "avx2",
            "config.kernel_isa is not scalar|avx2");
  }
  const Json* counters = doc.find("metrics")->find("counters");
  require(counters != nullptr && counters->kind() == Json::Kind::kObject,
          "missing metrics.counters object");
  require(!counters->members().empty(), "metrics.counters is empty");
  for (const char* key :
       {"store.hit", "store.miss", "store.evict", "store.gc_bytes"}) {
    require(counters->find(key) != nullptr,
            std::string("missing artifact-store counter ") + key);
  }
  if (expect_store_hits_only) {
    require(counters->find("store.miss")->as_int() == 0,
            "store.miss != 0 — a warm run rebuilt artifacts");
    require(counters->find("store.hit")->as_int() > 0,
            "store.hit == 0 — a warm run never touched the store");
    for (const char* key : {"attack.chunks", "model.backward_calls"}) {
      const Json* work = counters->find(key);
      require(work == nullptr || work->as_int() == 0,
              std::string(key) + " != 0 — a warm run crafted or trained");
    }
  }
  if (expect_integer_path) validate_integer_path(*counters);
  validate_distributions(doc.find("metrics")->find("distributions"),
                         "metrics:");
  // Trace-ring drop accounting (always present): drops do not fail the
  // manifest — the spans that did land are still valid — but a truncated
  // trace should never pass silently.
  const Json* trace = doc.find("trace");
  require(trace != nullptr && trace->kind() == Json::Kind::kObject,
          "missing trace drop-accounting section");
  const Json* dropped = trace->find("dropped_total");
  require(dropped != nullptr, "missing trace.dropped_total");
  if (dropped->as_int() > 0) {
    std::fprintf(stderr,
                 "obs_validate: WARNING: %s: trace.dropped_total = %lld — "
                 "the per-thread trace ring overflowed; spans are missing "
                 "from the trace (raise the ring size or trace less)\n",
                 path.c_str(), static_cast<long long>(dropped->as_int()));
  }
  std::printf("obs_validate: %s OK (run \"%s\", %zu counters)\n", path.c_str(),
              doc.find("name")->as_string().c_str(),
              counters->members().size());
}

// Validates the sampler's JSONL stream and returns the parsed final record
// for the cross-check against the manifest.
Json validate_telemetry(const std::string& path) {
  const std::string text = read_file(path);
  require(!text.empty(), "telemetry file is empty");
  std::vector<Json> records;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    require(end != std::string::npos,
            "telemetry line " + std::to_string(records.size()) +
                " is not newline-terminated");
    records.push_back(con::obs::parse_json(text.substr(start, end - start)));
    start = end + 1;
  }
  require(!records.empty(), "telemetry file has no records");
  double prev_elapsed = 0.0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Json& rec = records[i];
    const std::string where = "telemetry record " + std::to_string(i);
    require(rec.kind() == Json::Kind::kObject, where + " is not an object");
    const Json* seq = rec.find("seq");
    require(seq != nullptr && seq->as_int() == static_cast<std::int64_t>(i),
            where + ": seq is not sequential from 0");
    const Json* elapsed = rec.find("elapsed_s");
    require(elapsed != nullptr && elapsed->as_double() >= prev_elapsed,
            where + ": elapsed_s went backwards");
    prev_elapsed = elapsed->as_double();
    require(rec.find("phase") != nullptr, where + ": missing phase");
    const bool is_last = i + 1 == records.size();
    const Json* final_marker = rec.find("final");
    if (is_last) {
      require(final_marker != nullptr && final_marker->as_bool(),
              where + ": last record is not marked final "
                      "(the run never quiesced its sampler)");
      const Json* counters = rec.find("counters");
      require(counters != nullptr && counters->kind() == Json::Kind::kObject,
              where + ": final record missing counters object");
      validate_distributions(rec.find("distributions"),
                             where + ": final record");
      require(rec.find("trace_dropped") != nullptr,
              where + ": final record missing trace_dropped");
    } else {
      require(final_marker == nullptr,
              where + ": final marker before the last record");
      const Json* delta = rec.find("counters_delta");
      require(delta != nullptr && delta->kind() == Json::Kind::kObject,
              where + ": missing counters_delta object");
    }
  }
  std::printf("obs_validate: %s OK (%zu samples)\n", path.c_str(),
              records.size());
  return records.back();
}

// The sampler quiesce contract: the final telemetry record's counter
// section and the manifest's metrics.counters must be the same snapshot,
// compared as serialized bytes so ordering and encoding drift also fail.
void cross_check_final_counters(const Json& final_record,
                                const std::string& manifest_path) {
  const Json manifest = con::obs::parse_json(read_file(manifest_path));
  const Json* manifest_counters = manifest.find("metrics")->find("counters");
  require(manifest_counters != nullptr,
          "manifest missing metrics.counters for telemetry cross-check");
  const std::string a = final_record.find("counters")->dump();
  const std::string b = manifest_counters->dump();
  require(a == b,
          "final telemetry counters differ from manifest counters:\n  "
          "telemetry: " +
              a + "\n  manifest:  " + b);
  std::printf(
      "obs_validate: telemetry final counters == manifest counters\n");
}

}  // namespace

int main(int argc, char** argv) {
  con::util::CliFlags flags(argc, argv);
  const std::string trace = flags.get_string("trace", "");
  const std::string manifest = flags.get_string("manifest", "");
  const std::string telemetry = flags.get_string("telemetry", "");
  const bool hits_only = flags.get_bool("expect-store-hits-only", false);
  const bool integer_path = flags.get_bool("expect-integer-path", false);
  try {
    flags.check_unused();
    if (trace.empty() && manifest.empty() && telemetry.empty()) {
      throw std::runtime_error(
          "usage: obs_validate [--trace f.json] [--manifest f.json] "
          "[--telemetry f.jsonl] [--expect-store-hits-only] "
          "[--expect-integer-path]");
    }
    if (!trace.empty()) validate_trace(trace);
    if (!manifest.empty()) validate_manifest(manifest, hits_only, integer_path);
    if (!telemetry.empty()) {
      const Json final_record = validate_telemetry(telemetry);
      if (!manifest.empty()) {
        cross_check_final_counters(final_record, manifest);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "obs_validate: FAIL: %s\n", e.what());
    return 1;
  }
  return 0;
}
