#include "fleet.h"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <fstream>
#include <optional>
#include <sstream>
#include <thread>

#include "analyze/prom_reader.h"
#include "net/client.h"

namespace perfbench {

namespace {

/// Pins the calling thread (pid 0) or process to the `slot`-th CPU this
/// process may run on, modulo their number.
void pin_to_slot(pid_t pid, int slot) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  const int count = CPU_COUNT(&allowed);
  for (int cpu = 0, seen = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || seen++ != slot % count) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    ::sched_setaffinity(pid, sizeof one, &one);
    return;
  }
}

// CPU slots: router, shard 0, shard 1, then the benchmark's senders.
constexpr int kRouterSlot = 0;
constexpr int kFirstShardSlot = 1;
constexpr int kSenderSlot = kFirstShardSlot + Fleet::kShards;

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

Daemon::Daemon(const std::string& binary,
               const std::vector<std::string>& args,
               const std::string& log_path, int cpu_slot)
    : log_path_(log_path) {
  std::vector<std::string> argv_store;
  argv_store.push_back(binary);
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (auto& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);

  const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;
  pid_ = ::fork();
  if (pid_ == 0) {
    pin_to_slot(0, cpu_slot);
    ::dup2(fd, STDOUT_FILENO);
    ::dup2(fd, STDERR_FILENO);
    ::close(fd);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(fd);
}

Daemon::~Daemon() { stop(); }

std::uint16_t Daemon::wait_port(double timeout_s) {
  if (pid_ <= 0) return 0;
  static const std::string kTag = "listening on 127.0.0.1:";
  const auto t0 = Clock::now();
  while (seconds_since(t0) < timeout_s) {
    const std::string log = slurp(log_path_);
    const auto at = log.find(kTag);
    if (at != std::string::npos && log.find('\n', at) != std::string::npos)
      return static_cast<std::uint16_t>(
          std::stoi(log.substr(at + kTag.size())));
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return 0;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return 0;
}

bool Daemon::stop() {
  if (pid_ <= 0) return false;
  ::kill(pid_, SIGTERM);
  int status = 0;
  const auto t0 = Clock::now();
  pid_t got = 0;
  while ((got = ::waitpid(pid_, &status, WNOHANG)) == 0 &&
         seconds_since(t0) < 10.0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const pid_t pid = pid_;
  pid_ = -1;
  if (got == 0) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, &status, 0);
    return false;
  }
  return got == pid && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

std::unique_ptr<Fleet> Fleet::start(const std::string& bin_dir,
                                    const std::string& dir, bool traced,
                                    std::string* err) {
  ::mkdir(dir.c_str(), 0755);
  std::unique_ptr<Fleet> f(new Fleet());
  f->dir_ = dir;
  f->traced_ = traced;
  for (int i = 0; i < kShards; ++i) {
    const std::string base = dir + "/shard" + std::to_string(i);
    std::vector<std::string> args = {"--port", "0", "--shard-id",
                                     std::to_string(i), "--threads", "1",
                                     "--cache"};
    if (traced) {
      args.insert(args.end(), {"--trace-out", base + ".trace.json",
                               "--metrics-out", base + ".prom"});
    }
    f->shards_.push_back(std::make_unique<Daemon>(bin_dir + "/parse_serverd",
                                                  args, base + ".log",
                                                  kFirstShardSlot + i));
  }
  std::vector<std::string> router_args;
  for (int i = 0; i < kShards; ++i) {
    f->shard_ports_[i] = f->shards_[static_cast<std::size_t>(i)]->wait_port(20.0);
    if (f->shard_ports_[i] == 0) {
      *err = "shard " + std::to_string(i) + " did not start (see " + dir +
             "/shard" + std::to_string(i) + ".log)";
      return nullptr;
    }
    router_args.insert(router_args.end(),
                       {"--shard", "127.0.0.1:" +
                                       std::to_string(f->shard_ports_[i])});
  }
  router_args.insert(router_args.end(), {"--port", "0"});
  if (traced) {
    router_args.insert(router_args.end(),
                       {"--trace-out", dir + "/router.trace.json",
                        "--metrics-out", dir + "/router.prom"});
  }
  f->router_ = std::make_unique<Daemon>(bin_dir + "/parse_router",
                                        router_args, dir + "/router.log",
                                        kRouterSlot);
  f->router_port_ = f->router_->wait_port(20.0);
  if (f->router_port_ == 0) {
    *err = "router did not start (see " + dir + "/router.log)";
    return nullptr;
  }
  std::string why;
  auto client = parsec::net::Client::connect("127.0.0.1", f->router_port_,
                                             &why);
  if (!client || !client->ping(5000, &why)) {
    *err = "router does not answer Ping: " + why;
    return nullptr;
  }
  return f;
}

double Fleet::peak_rss_mb() const {
  double total = perfbench::peak_rss_mb(std::to_string(router_->pid()));
  for (const auto& s : shards_)
    total += perfbench::peak_rss_mb(std::to_string(s->pid()));
  return total;
}

bool Fleet::stop() {
  bool ok = router_ ? router_->stop() : false;
  for (auto& s : shards_) ok = s->stop() && ok;
  return ok;
}

double Fleet::cache_hit_ratio() const {
  double hits = 0.0, lookups = 0.0;
  try {
    for (int i = 0; i < kShards; ++i) {
      const auto scrape = parsec::analyze::read_prometheus_file(
          dir_ + "/shard" + std::to_string(i) + ".prom");
      hits += scrape.value_or("parsec_serve_cache_hits_total", 0.0);
      lookups += scrape.value_or("parsec_serve_cache_lookups_total", 0.0);
    }
  } catch (const std::exception&) {
    return -1.0;
  }
  return lookups > 0.0 ? hits / lookups : -1.0;
}

std::vector<std::string> Fleet::trace_files() const {
  if (!traced_) return {};
  std::vector<std::string> out;
  for (int i = 0; i < kShards; ++i)
    out.push_back(dir_ + "/shard" + std::to_string(i) + ".trace.json");
  out.push_back(dir_ + "/router.trace.json");
  return out;
}

parsec::net::WireRequest make_request(const std::vector<std::string>& words) {
  parsec::net::WireRequest req;
  req.grammar = "english";
  req.backend = parsec::engine::Backend::Serial;
  req.words = words;
  return req;
}

std::vector<Outcome> open_loop(
    std::uint16_t port, const std::vector<std::vector<std::string>>& words,
    double rate, int connections) {
  std::vector<Outcome> out(words.size());
  std::vector<std::thread> senders;
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  for (int c = 0; c < connections; ++c) {
    senders.emplace_back([&, c] {
      pin_to_slot(0, kSenderSlot);
      std::string err;
      std::optional<parsec::net::Client> client;
      parsec::net::WireResponse resp;
      for (std::size_t i = static_cast<std::size_t>(c); i < words.size();
           i += static_cast<std::size_t>(connections)) {
        const auto due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            static_cast<double>(i) / rate));
        std::this_thread::sleep_until(due);
        Outcome& o = out[i];
        if (!client || !client->valid())
          client = parsec::net::Client::connect("127.0.0.1", port, &err);
        const auto sent = Clock::now();
        o.send_lag_ms = ms_between(due, sent);
        const bool transport_ok =
            client && client->request(make_request(words[i]), resp, &err,
                                      10000);
        const auto done = Clock::now();
        o.latency_ms = ms_between(due, done);
        o.done_s = std::chrono::duration<double>(done - start).count();
        if (!transport_ok) {
          client.reset();
          continue;
        }
        o.ok = resp.status == parsec::serve::RequestStatus::Ok;
        o.hash = resp.domains_hash;
      }
    });
  }
  for (auto& t : senders) t.join();
  return out;
}

}  // namespace perfbench
