#include "obs/stats_server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <utility>

#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/obs.h"

namespace con::obs {

StatsServer::StatsServer(std::string socket_path, Info info)
    : path_(std::move(socket_path)), info_(std::move(info)) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path_.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr,
                 "WARNING: stats server: socket path too long (%zu >= %zu): "
                 "%s; stats off\n",
                 path_.size(), sizeof(addr.sun_path), path_.c_str());
    return;
  }
  std::memcpy(addr.sun_path, path_.c_str(), path_.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    std::fprintf(stderr, "WARNING: stats server: socket() failed; stats off\n");
    return;
  }
  ::unlink(path_.c_str());  // replace a stale socket from a previous run
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 8) != 0) {
    std::fprintf(stderr, "WARNING: stats server: cannot listen on %s; stats off\n",
                 path_.c_str());
    ::close(fd);
    return;
  }
  fd_ = fd;
  thread_ = std::thread([this] { serve(); });
}

StatsServer::~StatsServer() { stop(); }

void StatsServer::stop() {
  if (fd_ < 0) return;
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
  ::close(fd_);
  ::unlink(path_.c_str());
  fd_ = -1;
}

std::string StatsServer::snapshot_response(const Info& info) {
  Json doc = Json::object();
  doc.set("pid", static_cast<std::int64_t>(::getpid()));
  doc.set("run", info.run_name);
  doc.set("threads", static_cast<std::int64_t>(info.threads));
  doc.set("elapsed_s", elapsed_seconds());
  doc.set("phase", current_phase());
  doc.set("trace_events", static_cast<std::int64_t>(trace_event_count()));
  doc.set("trace_dropped", trace_dropped_count());
  const MetricsSnapshot snap = snapshot_metrics();
  Json metrics = Json::object();
  metrics.set("counters", counters_json(snap, {}));
  metrics.set("distributions", distributions_json(snap));
  doc.set("metrics", std::move(metrics));
  return doc.dump(/*indent=*/2) + "\n";
}

void StatsServer::serve() {
  while (!stop_.load(std::memory_order_relaxed)) {
    pollfd pfd{fd_, POLLIN, 0};
    const int r = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (r <= 0 || (pfd.revents & POLLIN) == 0) continue;
    const int client = ::accept(fd_, nullptr, nullptr);
    if (client < 0) continue;
    const std::string body = snapshot_response(info_);
    std::size_t off = 0;
    while (off < body.size()) {
      const ssize_t n = ::write(client, body.data() + off, body.size() - off);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    ::close(client);
    requests_.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace con::obs
