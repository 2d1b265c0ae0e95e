// The three workloads.  Why each exists, and which layer metric should
// move which end-to-end metric on it, is in perfbench/README.md.
//
// Every workload measures set-up several times and reports the
// median, builds its inputs from the seed alone, and checks every
// result against the plain-path reference outside the timed region.
// An untraced run (--trace 0) times the workload for --seconds.  A
// traced run (--trace 1) times it for half the time untraced and half
// under an obs::TraceSession (obs.trace_overhead), then runs the layer
// probes of layers.h on a sample of the same inputs.
#include <memory>
#include <unordered_set>

#include "bench.h"
#include "fleet.h"
#include "grammars/english_grammar.h"
#include "grammars/sentence_gen.h"
#include "layers.h"
#include "net/client.h"
#include "obs/trace.h"
#include "parsec/backend.h"
#include "serve/parse_service.h"
#include "util/rng.h"

namespace perfbench {

namespace cdg = parsec::cdg;
namespace engine = parsec::engine;
namespace grammars = parsec::grammars;
namespace serve = parsec::serve;
using parsec::util::Quantiles;
using parsec::util::Rng;

namespace {

constexpr int kSetupReps = 21;

// Per-stream seed salts, so inputs, warm-up sentences and length draws
// never share a random stream.
constexpr std::uint64_t kLengthSalt = 0x6c656e67ull;
constexpr std::uint64_t kWarmSalt = 0x7761726dull;

template <class F>
double median_seconds(int reps, F&& once) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    once();
    s.push_back(seconds_since(t0));
  }
  return median(s);
}

/// One timed pass: per top-level call its latency and item count, per
/// parsed sentence its index into the pass's input pool and its result.
struct Pass {
  std::vector<double> call_ms;
  std::vector<std::size_t> call_items;
  std::vector<std::size_t> item;
  std::vector<bool> ok;
  std::vector<std::uint64_t> hashes;

  void add_call(double ms, std::size_t items) {
    call_ms.push_back(ms);
    call_items.push_back(items);
  }
  void add_item(std::size_t index, bool item_ok, std::uint64_t hash) {
    item.push_back(index);
    ok.push_back(item_ok);
    hashes.push_back(hash);
  }

  double p50() const {
    Quantiles q;
    for (double x : call_ms) q.add(x);
    return q.p50();
  }

  /// Sentences per second of busy time, as the median over kBlocks
  /// consecutive equal runs of calls: a short burst of interference
  /// from outside the process moves one block, not the result.
  double throughput_sps() const {
    std::vector<double> blocks;
    const std::size_t per = std::max<std::size_t>(1, call_ms.size() / kBlocks);
    for (std::size_t at = 0; at + per <= call_ms.size(); at += per) {
      double ms = 0.0, items = 0.0;
      for (std::size_t k = at; k < at + per; ++k) {
        ms += call_ms[k];
        items += static_cast<double>(call_items[k]);
      }
      blocks.push_back(items / (ms / 1e3));
    }
    return median(blocks);
  }
  static constexpr std::size_t kBlocks = 10;
};

std::vector<std::uint64_t> reference_for(const Args& args,
                                         const cdg::Grammar& g,
                                         const std::vector<cdg::Sentence>& in) {
  std::vector<std::uint64_t> ref = reference_hashes(g, in);
  if (args.plant_bad_hash && !ref.empty()) ref.front() ^= 1;
  return ref;
}

void check_pass(const Pass& p, const std::vector<std::uint64_t>& ref,
                Result& r) {
  for (std::size_t i = 0; i < p.item.size(); ++i)
    r.check(p.ok[i], p.hashes[i], ref[p.item[i]]);
}

std::vector<int> lengths_of(const std::vector<cdg::Sentence>& in) {
  std::vector<int> n;
  for (const auto& s : in) n.push_back(s.size());
  return n;
}

void set_end_to_end(Result& r, double throughput_sps, double p50_ms,
                    double p99_ms, double rss_mb, double setup_s) {
  r.set("throughput_sps", throughput_sps, "1/s");
  r.set("latency_p50_ms", p50_ms, "ms");
  r.set("latency_p99_ms", p99_ms, "ms");
  r.set("success_rate",
        static_cast<double>(r.attempted - r.failed) /
            static_cast<double>(r.attempted),
        "ratio");
  r.set("peak_rss_mb", rss_mb, "MiB");
  r.set("setup_s", setup_s, "s");
}

/// End-to-end metrics of an in-process closed loop.
void set_end_to_end(Result& r, const Pass& p, double rss_mb, double setup_s) {
  Quantiles q;
  for (double x : p.call_ms) q.add(x);
  set_end_to_end(r, p.throughput_sps(), q.p50(), q.p99(), rss_mb, setup_s);
  r.report["latency_samples"] =
      JsonValue::make_number(static_cast<double>(p.call_ms.size()));
}

/// An endless stream of grammatical sentences with lengths drawn
/// uniformly from [lo, hi]; with `unique`, no sentence repeats.
class SentenceStream {
 public:
  SentenceStream(const grammars::CdgBundle& b, std::uint64_t seed, int lo,
                 int hi, bool unique)
      : gen_(b, seed), rng_(seed ^ kLengthSalt), lo_(lo), hi_(hi),
        unique_(unique) {}

  cdg::Sentence next() { return next(static_cast<int>(rng_.next_in(lo_, hi_))); }
  cdg::Sentence next(int n) {
    for (;;) {
      cdg::Sentence s = gen_.generate_sentence(n);
      if (!unique_ || seen_.insert(engine::hash_sentence(s)).second) return s;
    }
  }
  Rng& rng() { return rng_; }

 private:
  grammars::SentenceGenerator gen_;
  Rng rng_;
  int lo_, hi_;
  bool unique_;
  std::unordered_set<std::uint64_t> seen_;
};

/// Grammar + compiled engines, built once per run for the probes.
struct Engines {
  std::unique_ptr<grammars::CdgBundle> bundle =
      std::make_unique<grammars::CdgBundle>(grammars::make_english_grammar());
  std::unique_ptr<engine::EngineSet> engines =
      std::make_unique<engine::EngineSet>(bundle->grammar);
};

/// The traced half of an in-process run: the layer probes' untraced
/// part, then `pass()` and the traced probes under one TraceSession.
/// Returns the traced pass.
template <class PassFn>
Pass traced_half(const Args& args, const Engines& e,
                 const std::vector<cdg::Sentence>& sample, double untraced_p50,
                 Result& r, PassFn&& pass) {
  LayerProbes probes(args, *e.bundle, *e.engines, sample, r);
  probes.untraced();
  parsec::obs::TraceSession session;
  Pass traced = pass();
  probes.traced(nullptr, nullptr);
  probes.finish(session, traced.p50(), untraced_p50);
  return traced;
}

// ---- long_serial -------------------------------------------------------

Pass long_pass(const engine::EngineSet& es, engine::NetworkScratch& scratch,
               SentenceStream& stream, std::vector<cdg::Sentence>& pool,
               double seconds) {
  Pass p;
  const auto t_end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(seconds));
  while (Clock::now() < t_end) {
    pool.push_back(stream.next());
    const auto t0 = Clock::now();
    const engine::BackendRun run =
        engine::run_backend(es, engine::Backend::Serial, pool.back(), &scratch);
    p.add_call(ms_between(t0, Clock::now()), 1);
    p.add_item(pool.size() - 1, !run.cancelled, run.domains_hash);
  }
  return p;
}

}  // namespace

Result run_long_serial(const Args& args) {
  Result r;
  std::unique_ptr<Engines> e;
  const double setup_s =
      median_seconds(kSetupReps, [&] { e = std::make_unique<Engines>(); });
  const engine::EngineSet& es = *e->engines;
  const cdg::Grammar& g = e->bundle->grammar;

  SentenceStream stream(*e->bundle, args.seed, 14, 22, true);
  engine::NetworkScratch scratch;
  SentenceStream warm(*e->bundle, args.seed ^ kWarmSalt, 14, 22, true);
  for (int n = 14; n <= 22; ++n)
    engine::run_backend(es, engine::Backend::Serial, warm.next(n), &scratch);

  // Distinct sentences: the pool grows with the run and is checked
  // after it.
  std::vector<cdg::Sentence> pool;
  if (!args.trace) {
    Pass p = long_pass(es, scratch, stream, pool, args.seconds);
    const double rss = peak_rss_mb();
    check_pass(p, reference_for(args, g, pool), r);
    set_end_to_end(r, p, rss, setup_s);
    r.report["input_lengths"] = length_histogram(lengths_of(pool));
    r.report["arena_bytes"] =
        JsonValue::make_number(static_cast<double>(scratch.arena_bytes()));
    return r;
  }

  Pass untraced = long_pass(es, scratch, stream, pool, args.seconds / 2);
  const std::vector<cdg::Sentence> sample = pool;
  Pass traced = traced_half(args, *e, sample, untraced.p50(), r, [&] {
    return long_pass(es, scratch, stream, pool, args.seconds / 2);
  });
  const auto ref = reference_for(args, g, pool);
  check_pass(untraced, ref, r);
  check_pass(traced, ref, r);
  r.report["input_lengths"] = length_histogram(lengths_of(pool));
  return r;
}

// ---- short_batched -----------------------------------------------------

namespace {

constexpr std::size_t kChunk = 64;

/// parse_batch chunks of kChunk sentences with n in [4, 8], made of
/// same-length runs of 1..16 sentences.
std::vector<cdg::Sentence> short_chunk(SentenceStream& stream) {
  std::vector<cdg::Sentence> out;
  while (out.size() < kChunk) {
    const int n = static_cast<int>(stream.rng().next_in(4, 8));
    const std::size_t run = static_cast<std::size_t>(stream.rng().next_in(1, 16));
    for (std::size_t k = 0; k < run && out.size() < kChunk; ++k)
      out.push_back(stream.next(n));
  }
  return out;
}

// Pool of chunks the closed loop cycles through, so memory does not
// grow with throughput.
constexpr std::size_t kPoolChunks = 256;

struct ShortPass {
  Pass pass;
  double batched_share = 0.0;
};

ShortPass short_pass(serve::ParseService& svc,
                     const std::vector<cdg::Sentence>& pool, double seconds) {
  ShortPass sp;
  Pass& p = sp.pass;
  const std::uint64_t batched_before = svc.stats().batched_requests;
  const auto t_end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(seconds));
  for (std::size_t c = 0; Clock::now() < t_end; c = (c + 1) % kPoolChunks) {
    std::vector<serve::ParseRequest> reqs(kChunk);
    for (std::size_t i = 0; i < kChunk; ++i)
      reqs[i].sentence = pool[c * kChunk + i];
    const auto t0 = Clock::now();
    std::vector<serve::ParseResponse> resps = svc.parse_batch(std::move(reqs));
    p.add_call(ms_between(t0, Clock::now()), kChunk);
    for (std::size_t i = 0; i < kChunk; ++i)
      p.add_item(c * kChunk + i, resps[i].status == serve::RequestStatus::Ok,
                 resps[i].domains_hash);
  }
  sp.batched_share =
      static_cast<double>(svc.stats().batched_requests - batched_before) /
      static_cast<double>(p.item.size());
  return sp;
}

}  // namespace

Result run_short_batched(const Args& args) {
  Result r;
  serve::ParseService::Options opt;
  opt.threads = 3;
  opt.enable_batching = true;
  std::unique_ptr<grammars::CdgBundle> bundle;
  std::unique_ptr<serve::ParseService> svc;
  const double setup_s = median_seconds(kSetupReps, [&] {
    svc.reset();
    bundle = std::make_unique<grammars::CdgBundle>(
        grammars::make_english_grammar());
    svc = std::make_unique<serve::ParseService>(bundle->grammar, opt);
  });
  const cdg::Grammar& g = bundle->grammar;

  SentenceStream stream(*bundle, args.seed, 4, 8, false);
  std::vector<cdg::Sentence> pool;
  for (std::size_t c = 0; c < kPoolChunks; ++c)
    for (auto& s : short_chunk(stream)) pool.push_back(std::move(s));

  SentenceStream warm(*bundle, args.seed ^ kWarmSalt, 4, 8, false);
  for (int k = 0; k < 8; ++k) {
    std::vector<cdg::Sentence> chunk = short_chunk(warm);
    std::vector<serve::ParseRequest> reqs(chunk.size());
    for (std::size_t i = 0; i < chunk.size(); ++i) reqs[i].sentence = chunk[i];
    svc->parse_batch(std::move(reqs));
  }

  r.report["input_lengths"] = length_histogram(lengths_of(pool));
  if (!args.trace) {
    ShortPass sp = short_pass(*svc, pool, args.seconds);
    const double rss = peak_rss_mb();
    check_pass(sp.pass, reference_for(args, g, pool), r);
    set_end_to_end(r, sp.pass, rss, setup_s);
    r.report["batched_request_share"] = JsonValue::make_number(sp.batched_share);
    return r;
  }

  ShortPass untraced = short_pass(*svc, pool, args.seconds / 2);
  Engines e;
  Pass traced = traced_half(args, e, pool, untraced.pass.p50(), r, [&] {
    return short_pass(*svc, pool, args.seconds / 2).pass;
  });
  const auto ref = reference_for(args, g, pool);
  check_pass(untraced.pass, ref, r);
  check_pass(traced, ref, r);
  r.report["batched_request_share"] =
      JsonValue::make_number(untraced.batched_share);
  return r;
}

// ---- fleet_open ----------------------------------------------------------

namespace {

// Open-loop rate, requests/s: it keeps each shard's CPU busy about a
// fifth of the time at n = 6..14.  At 500/s the fleet's CPUs idle between requests, and
// waking them put a 9% spread between runs' p50s even pinned; at
// 1000/s it is 2%.
constexpr double kFleetRate = 1000.0;
constexpr int kFleetConnections = 2;
constexpr double kRepeatShare = 0.25;
constexpr std::size_t kFleetSegments = 8;

struct FleetCorpus {
  std::vector<cdg::Sentence> sentences;
  std::vector<std::vector<std::string>> words;
  std::size_t repeats = 0;
};

/// `segments` runs of `per_segment` requests with n in [6, 14]; each
/// request after a segment's first repeats a uniformly chosen earlier
/// request of its segment with probability kRepeatShare.
FleetCorpus fleet_corpus(const grammars::CdgBundle& b, std::uint64_t seed,
                         std::size_t segments, std::size_t per_segment) {
  FleetCorpus c;
  SentenceStream stream(b, seed, 6, 14, true);
  Rng repeat(seed ^ 0x72657065ull);
  for (std::size_t i = 0; i < segments * per_segment; ++i) {
    const std::size_t first = i - i % per_segment;
    if (i > first && repeat.next_double() < kRepeatShare) {
      c.sentences.push_back(c.sentences[first + repeat.next_below(i - first)]);
      ++c.repeats;
    } else {
      c.sentences.push_back(stream.next());
    }
    c.words.push_back(c.sentences.back().words);
  }
  return c;
}

std::unique_ptr<Fleet> start_fleet(const Args& args, const std::string& dir,
                                   bool traced) {
  std::string err;
  auto fleet = Fleet::start(args.bin_dir, dir, traced, &err);
  if (!fleet) throw std::runtime_error("fleet: " + err);
  return fleet;
}

/// Warms every shard's network pool with sentences of every corpus
/// length that are not in the corpus.
void warm_fleet(const Args& args, const grammars::CdgBundle& b,
                const Fleet& fleet) {
  SentenceStream warm(b, args.seed ^ kWarmSalt, 6, 14, true);
  std::string err;
  auto client =
      parsec::net::Client::connect("127.0.0.1", fleet.router_port(), &err);
  parsec::net::WireResponse resp;
  for (int k = 0; k < 4; ++k)
    for (int n = 6; n <= 14; ++n)
      if (!client || !client->request(make_request(warm.next(n).words), resp,
                                      &err, 10000))
        throw std::runtime_error("fleet warm-up: " + err);
}

struct FleetPass {
  std::vector<Outcome> outs;
  double p50_ms = 0.0;
  double peak_rss_mb = 0.0;
  double seconds = 0.0;          // first scheduled send to last response
  std::unique_ptr<Fleet> fleet;  // stopped
};

/// Sends words[begin, end) open loop through `fleet`, then stops it.
FleetPass fleet_pass(const Args& args, const grammars::CdgBundle& b,
                     std::unique_ptr<Fleet> fleet, const FleetCorpus& c,
                     std::size_t begin, std::size_t end) {
  FleetPass fp;
  warm_fleet(args, b, *fleet);
  const std::vector<std::vector<std::string>> words(
      c.words.begin() + static_cast<long>(begin),
      c.words.begin() + static_cast<long>(end));
  fp.outs = open_loop(fleet->router_port(), words, kFleetRate,
                      kFleetConnections);
  fp.peak_rss_mb = fleet->peak_rss_mb();
  if (!fleet->stop()) throw std::runtime_error("fleet did not drain cleanly");
  fp.fleet = std::move(fleet);
  Quantiles q;
  for (const auto& o : fp.outs) {
    if (o.ok) q.add(o.latency_ms);
    fp.seconds = std::max(fp.seconds, o.done_s);
  }
  fp.p50_ms = q.p50();
  return fp;
}

void check_segment(const FleetPass& fp, const std::vector<std::uint64_t>& ref,
                   std::size_t begin, Result& r) {
  for (std::size_t i = 0; i < fp.outs.size(); ++i)
    r.check(fp.outs[i].ok, fp.outs[i].hash, ref[begin + i]);
}

}  // namespace

Result run_fleet_open(const Args& args) {
  Result r;
  Engines e;
  const grammars::CdgBundle& b = *e.bundle;
  // Untraced: kFleetSegments fleets in turn, each spawned afresh (its
  // spawn is one set-up sample) and sent one segment of the corpus.
  // Traced: one segment, sent to an untraced and then a traced fleet.
  const std::size_t segments = args.trace ? 1 : kFleetSegments;
  const std::size_t per_segment = static_cast<std::size_t>(
      kFleetRate * args.seconds / (args.trace ? 2.0 : kFleetSegments));
  const FleetCorpus c = fleet_corpus(b, args.seed, segments, per_segment);
  const auto ref = reference_for(args, b.grammar, c.sentences);
  r.report["input_lengths"] = length_histogram(lengths_of(c.sentences));
  r.report["repeated_request_share"] = JsonValue::make_number(
      static_cast<double>(c.repeats) / static_cast<double>(c.sentences.size()));
  r.report["offered_rate_rps"] = JsonValue::make_number(kFleetRate);

  if (!args.trace) {
    std::vector<double> setups, segment_p99;
    Quantiles all, lag;
    double seconds = 0.0, rss = 0.0;
    for (std::size_t k = 0; k < segments; ++k) {
      const auto t0 = Clock::now();
      auto fleet = start_fleet(
          args, args.out_dir + "/segment" + std::to_string(k), false);
      setups.push_back(seconds_since(t0));
      const std::size_t begin = k * per_segment;
      FleetPass fp =
          fleet_pass(args, b, std::move(fleet), c, begin, begin + per_segment);
      check_segment(fp, ref, begin, r);
      Quantiles q;
      for (const auto& o : fp.outs) {
        if (o.ok) {
          q.add(o.latency_ms);
          all.add(o.latency_ms);
        }
        lag.add(o.send_lag_ms);
      }
      segment_p99.push_back(q.p99());
      seconds += fp.seconds;
      rss = std::max(rss, fp.peak_rss_mb);
    }
    // p99: the median of the fleets' p99s (each over per_segment
    // requests), so one burst of outside interference in one fleet's
    // time slot does not move the result; the pooled p99 is reported.
    set_end_to_end(r, static_cast<double>(all.count()) / seconds, all.p50(),
                   median(segment_p99), rss, median(setups));
    r.report["latency_samples"] =
        JsonValue::make_number(static_cast<double>(all.count()));
    r.report["pooled_latency_p99_ms"] = JsonValue::make_number(all.p99());
    std::vector<JsonValue> p99s;
    for (double x : segment_p99) p99s.push_back(JsonValue::make_number(x));
    r.report["fleet_latency_p99_ms"] = JsonValue::make_array(std::move(p99s));
    r.report["send_lag_p50_ms"] = JsonValue::make_number(lag.p50());
    r.report["send_lag_p99_ms"] = JsonValue::make_number(lag.p99());
    return r;
  }

  FleetPass untraced =
      fleet_pass(args, b, start_fleet(args, args.out_dir + "/untraced", false),
                 c, 0, per_segment);
  check_segment(untraced, ref, 0, r);
  LayerProbes probes(args, b, *e.engines, c.sentences, r);
  probes.untraced();
  parsec::obs::TraceSession session;
  FleetPass traced =
      fleet_pass(args, b, start_fleet(args, args.out_dir + "/traced", true), c,
                 0, per_segment);
  check_segment(traced, ref, 0, r);
  probes.traced(&traced.outs, traced.fleet.get());
  probes.finish(session, traced.p50_ms, untraced.p50_ms);
  return r;
}

}  // namespace perfbench
