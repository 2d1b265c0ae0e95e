// A loopback fleet for the benchmark: two parse_serverd shards (one
// worker each, result cache on, serial backend by request) behind one
// parse_router, spawned from the build's own binaries, plus the
// benchmark's open-loop sender.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "net/wire.h"

namespace perfbench {

/// One spawned daemon, pinned to one CPU.  stdout goes to a log file
/// under the run directory (the daemon announces its port there); the
/// destructor stops the process if stop() was not called.
///
/// Pinning: unpinned, where the scheduler happened to put a fleet's
/// threads decided whether each hop woke an idle CPU, and the p50 of
/// one fleet came out near 0.4 ms or near 0.9 ms at random.  With the
/// router, each shard and the senders each on their own CPU (modulo
/// the CPUs there are), every run sees the same placement
/// (perfbench/README.md, "Fleet placement and rate").
class Daemon {
 public:
  Daemon(const std::string& binary, const std::vector<std::string>& args,
         const std::string& log_path, int cpu_slot);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Waits for the "listening on 127.0.0.1:<port>" line; 0 on failure
  /// (the process exited, or no line within `timeout_s`).
  std::uint16_t wait_port(double timeout_s);

  /// SIGTERM, then wait for exit (SIGKILL after a grace period).  True
  /// when the daemon drained and exited 0.
  bool stop();

  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
  std::string log_path_;
};

class Fleet {
 public:
  static constexpr int kShards = 2;

  /// Spawns the shards, then the router, and returns once the router
  /// answers a Ping.  With `traced` every daemon records its own trace
  /// and writes trace/metrics files into `dir` when stopped.  Null (and
  /// `err` set) on failure.
  static std::unique_ptr<Fleet> start(const std::string& bin_dir,
                                      const std::string& dir, bool traced,
                                      std::string* err);

  std::uint16_t router_port() const { return router_port_; }
  std::uint16_t shard_port(int i) const { return shard_ports_[i]; }

  /// Sum of the daemons' peak resident sets (MiB), read while running.
  double peak_rss_mb() const;

  /// Stops router then shards.  True when all drained and exited 0
  /// (the daemons' SIGTERM contract).
  bool stop();

  /// Shard result-cache hits / lookups, summed over the shards, from
  /// the metrics files a traced fleet writes when stopped.  Negative
  /// when unavailable.
  double cache_hit_ratio() const;

  /// Trace files the traced daemons wrote (for parsec_analyze).
  std::vector<std::string> trace_files() const;

 private:
  std::string dir_;
  bool traced_ = false;
  std::vector<std::unique_ptr<Daemon>> shards_;
  std::unique_ptr<Daemon> router_;
  std::uint16_t router_port_ = 0;
  std::uint16_t shard_ports_[kShards] = {};
};

/// One request of an open-loop pass, as observed by the sender.
struct Outcome {
  bool ok = false;            // transport ok and status Ok
  std::uint64_t hash = 0;     // domains_hash of the response
  double latency_ms = 0.0;    // response time minus *scheduled* send
  double send_lag_ms = 0.0;   // actual send minus scheduled send
  double done_s = 0.0;        // completion, seconds from pass start
};

/// Sends request i at start + i / rate over `connections` blocking
/// connections to 127.0.0.1:`port` (request i on connection
/// i % connections), whatever the responses do.  Latency is timed from
/// each request's scheduled send time, so a stall is charged to every
/// request it delays.
std::vector<Outcome> open_loop(
    std::uint16_t port, const std::vector<std::vector<std::string>>& words,
    double rate, int connections);

/// Wire request for one sentence on the serial backend.
parsec::net::WireRequest make_request(const std::vector<std::string>& words);

}  // namespace perfbench
