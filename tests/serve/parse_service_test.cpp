// ParseService: batch ordering, deadlines, shutdown, callbacks, stats,
// per-worker scratch reuse, and the headline determinism property —
// batched parses are byte-identical to single-threaded parses on every
// backend.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>

#include <string>
#include <vector>

#include "cdg/parser.h"
#include "grammars/english_grammar.h"
#include "obs/metrics.h"
#include "grammars/sentence_gen.h"
#include "grammars/toy_grammar.h"
#include "parsec/backend.h"
#include "serve/parse_service.h"

namespace {

using namespace parsec;
using namespace std::chrono_literals;
using serve::ParseRequest;
using serve::ParseResponse;
using serve::ParseService;
using serve::RequestStatus;

ParseService::Options small_service(int threads) {
  ParseService::Options opt;
  opt.threads = threads;
  opt.queue_capacity = 64;
  return opt;
}

TEST(ParseService, AcceptsAndRejectsLikeTheSequentialParser) {
  auto bundle = grammars::make_toy_grammar();
  ParseService service(bundle.grammar, small_service(2));
  ParseRequest ok;
  ok.sentence = bundle.tag("The program runs");
  ParseRequest bad;
  bad.sentence = bundle.tag("program The runs");
  auto f1 = service.submit(std::move(ok));
  auto f2 = service.submit(std::move(bad));
  const ParseResponse r1 = f1.get(), r2 = f2.get();
  EXPECT_EQ(r1.status, RequestStatus::Ok);
  EXPECT_TRUE(r1.accepted);
  EXPECT_EQ(r2.status, RequestStatus::Ok);
  EXPECT_FALSE(r2.accepted);
}

TEST(ParseService, BatchResultsComeBackInInputOrder) {
  auto bundle = grammars::make_toy_grammar();
  ParseService service(bundle.grammar, small_service(4));
  // Alternating accept/reject pattern; the response order must mirror
  // the request order no matter which worker finishes first.
  std::vector<ParseRequest> reqs;
  for (int i = 0; i < 24; ++i) {
    ParseRequest r;
    r.sentence = bundle.tag(i % 2 == 0 ? "The program runs"
                                       : "program The runs");
    reqs.push_back(std::move(r));
  }
  const auto responses = service.parse_batch(std::move(reqs));
  ASSERT_EQ(responses.size(), 24u);
  for (int i = 0; i < 24; ++i) {
    EXPECT_EQ(responses[i].status, RequestStatus::Ok) << i;
    EXPECT_EQ(responses[i].accepted, i % 2 == 0) << i;
  }
}

TEST(ParseService, BatchedParsesByteMatchSingleThreadedOnEveryBackend) {
  auto bundle = grammars::make_toy_grammar();
  const char* texts[] = {"The program runs", "A dog halts",
                         "program The runs"};
  // Reference: plain single-threaded sequential parse to the fixpoint.
  cdg::SequentialParser seq(bundle.grammar);
  std::vector<std::vector<util::DynBitset>> reference;
  std::vector<bool> ref_accepted;
  for (const char* text : texts) {
    cdg::Network net = seq.make_network(bundle.tag(text));
    ref_accepted.push_back(seq.parse(net).accepted);
    std::vector<util::DynBitset> domains;
    for (int r = 0; r < net.num_roles(); ++r) domains.emplace_back(net.domain(r));
    reference.push_back(std::move(domains));
  }

  ParseService service(bundle.grammar, small_service(4));
  for (engine::Backend b : engine::kAllBackends) {
    std::vector<ParseRequest> reqs;
    for (const char* text : texts) {
      ParseRequest r;
      r.sentence = bundle.tag(text);
      r.backend = b;
      r.capture_domains = true;
      reqs.push_back(std::move(r));
    }
    const auto responses = service.parse_batch(std::move(reqs));
    ASSERT_EQ(responses.size(), std::size(texts));
    for (std::size_t i = 0; i < responses.size(); ++i) {
      SCOPED_TRACE(std::string(engine::to_string(b)) + " / " + texts[i]);
      EXPECT_EQ(responses[i].status, RequestStatus::Ok);
      EXPECT_EQ(responses[i].accepted, ref_accepted[i]);
      EXPECT_EQ(responses[i].domains_hash, engine::hash_domains(reference[i]));
      ASSERT_EQ(responses[i].domains.size(), reference[i].size());
      for (std::size_t r = 0; r < reference[i].size(); ++r)
        EXPECT_EQ(responses[i].domains[r], reference[i][r]) << "role " << r;
    }
  }
}

TEST(ParseService, SerialAc4PathReachesTheSameFixpoint) {
  auto bundle = grammars::make_toy_grammar();
  cdg::SequentialParser seq(bundle.grammar);
  cdg::Network net = seq.make_network(bundle.tag("The program runs"));
  seq.parse(net);
  std::vector<util::DynBitset> reference;
  for (int r = 0; r < net.num_roles(); ++r) reference.emplace_back(net.domain(r));

  ParseService::Options opt = small_service(2);
  opt.engines.serial_ac4 = true;
  ParseService service(bundle.grammar, opt);
  ParseRequest req;
  req.sentence = bundle.tag("The program runs");
  req.capture_domains = true;
  const ParseResponse resp = service.submit(std::move(req)).get();
  EXPECT_TRUE(resp.accepted);
  EXPECT_EQ(resp.domains_hash, engine::hash_domains(reference));
}

TEST(ParseService, ExpiredDeadlineReturnsTimeoutNotAStall) {
  auto bundle = grammars::make_english_grammar();
  grammars::SentenceGenerator gen(bundle, 7);
  ParseService service(bundle.grammar, small_service(1));
  ParseRequest req;
  req.sentence = gen.generate_sentence(8);
  req.deadline = 1ns;  // expired the moment it is dequeued
  const ParseResponse resp = service.submit(std::move(req)).get();
  EXPECT_EQ(resp.status, RequestStatus::Timeout);
  EXPECT_FALSE(resp.accepted);
  EXPECT_EQ(service.stats().timeouts, 1u);
}

TEST(ParseService, GenerousDeadlineStillParses) {
  auto bundle = grammars::make_toy_grammar();
  ParseService service(bundle.grammar, small_service(2));
  ParseRequest req;
  req.sentence = bundle.tag("The program runs");
  req.deadline = 60s;
  const ParseResponse resp = service.submit(std::move(req)).get();
  EXPECT_EQ(resp.status, RequestStatus::Ok);
  EXPECT_TRUE(resp.accepted);
}

TEST(ParseService, ShutdownWhileBusySatisfiesEveryFuture) {
  auto bundle = grammars::make_toy_grammar();
  auto service = std::make_unique<ParseService>(bundle.grammar,
                                                small_service(2));
  std::vector<ParseRequest> reqs;
  for (int i = 0; i < 16; ++i) {
    ParseRequest r;
    r.sentence = bundle.tag("The program runs");
    reqs.push_back(std::move(r));
  }
  auto futures = service->submit_batch(std::move(reqs));
  service->shutdown();  // drain-then-join while requests are in flight
  int ok = 0;
  for (auto& f : futures) {
    const ParseResponse r = f.get();  // every future must be satisfied
    if (r.status == RequestStatus::Ok) ++ok;
  }
  EXPECT_EQ(ok, 16);  // drain semantics: queued work still parses

  // After shutdown, new submissions fail fast with a satisfied future.
  ParseRequest late;
  late.sentence = bundle.tag("The program runs");
  EXPECT_EQ(service->submit(std::move(late)).get().status,
            RequestStatus::ShuttingDown);
}

TEST(ParseService, CallbackFlavourDeliversOnWorker) {
  auto bundle = grammars::make_toy_grammar();
  ParseService service(bundle.grammar, small_service(2));
  std::mutex m;
  std::condition_variable cv;
  bool done = false;
  ParseResponse got;
  ParseRequest req;
  req.sentence = bundle.tag("The program runs");
  service.submit(std::move(req), [&](ParseResponse r) {
    std::lock_guard lock(m);
    got = std::move(r);
    done = true;
    cv.notify_one();
  });
  std::unique_lock lock(m);
  ASSERT_TRUE(cv.wait_for(lock, 30s, [&] { return done; }));
  EXPECT_TRUE(got.accepted);
  EXPECT_GE(got.worker, 0);
}

TEST(ParseService, StatsRollUp) {
  auto bundle = grammars::make_toy_grammar();
  ParseService service(bundle.grammar, small_service(2));
  std::vector<ParseRequest> reqs;
  for (int i = 0; i < 10; ++i) {
    ParseRequest r;
    r.sentence = bundle.tag("The program runs");
    r.backend = i < 7 ? engine::Backend::Serial : engine::Backend::Pram;
    reqs.push_back(std::move(r));
  }
  service.parse_batch(std::move(reqs));
  const serve::ServiceStats s = service.stats();
  EXPECT_EQ(s.submitted, 10u);
  EXPECT_EQ(s.completed, 10u);
  EXPECT_EQ(s.accepted, 10u);
  EXPECT_EQ(s.timeouts, 0u);
  EXPECT_GT(s.throughput_sps, 0.0);
  EXPECT_LE(s.latency_p50_ms, s.latency_p95_ms);
  EXPECT_LE(s.latency_p95_ms, s.latency_p99_ms);
  EXPECT_LE(s.latency_p99_ms, s.latency_max_ms + 1e-9);
  const auto& serial =
      s.backends[static_cast<std::size_t>(engine::Backend::Serial)];
  const auto& pram =
      s.backends[static_cast<std::size_t>(engine::Backend::Pram)];
  EXPECT_EQ(serial.requests, 7u);
  EXPECT_EQ(pram.requests, 3u);
  EXPECT_GT(pram.pram.time_steps, 0u);
  std::uint64_t jobs = 0;
  for (const auto& w : s.workers) jobs += w.jobs;
  EXPECT_EQ(jobs, 10u);
}

TEST(ParseService, MetricsTextExposesRequestAndCostCounters) {
  auto bundle = grammars::make_toy_grammar();
  // Isolated registry so counts are exactly this test's traffic.
  obs::Registry registry;
  ParseService::Options opt = small_service(2);
  opt.metrics = &registry;
  ParseService service(bundle.grammar, opt);

  std::vector<ParseRequest> reqs;
  for (int i = 0; i < 4; ++i) {
    ParseRequest r;
    r.sentence = bundle.tag("The program runs");
    r.backend = i < 3 ? engine::Backend::Serial : engine::Backend::Maspar;
    reqs.push_back(std::move(r));
  }
  for (auto& resp : service.parse_batch(std::move(reqs)))
    EXPECT_TRUE(resp.accepted);

  const std::string text = service.metrics_text();
  EXPECT_NE(
      text.find(
          "parsec_requests_total{backend=\"serial\",status=\"accepted\"} 3\n"),
      std::string::npos)
      << text;
  EXPECT_NE(
      text.find(
          "parsec_requests_total{backend=\"maspar\",status=\"accepted\"} 1\n"),
      std::string::npos);
  // The same cost counters stats() reports as a struct, scrapeable:
  // serial did real constraint evaluation and the MasPar run charged
  // router scans and ACU broadcasts.
  const serve::ServiceStats s = service.stats();
  const auto& serial =
      s.backends[static_cast<std::size_t>(engine::Backend::Serial)];
  EXPECT_NE(text.find("parsec_effective_binary_evals_total{backend="
                      "\"serial\"} " +
                      std::to_string(serial.network.effective_binary_evals()) +
                      "\n"),
            std::string::npos);
  const auto& maspar =
      s.backends[static_cast<std::size_t>(engine::Backend::Maspar)];
  EXPECT_GT(maspar.maspar.scan_ops, 0u);
  EXPECT_NE(text.find("parsec_maspar_scan_ops_total " +
                      std::to_string(maspar.maspar.scan_ops) + "\n"),
            std::string::npos);
  EXPECT_NE(text.find("parsec_parse_duration_seconds_count{backend="
                      "\"serial\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("parsec_serve_queue_depth"), std::string::npos);
}

TEST(NetworkScratch, ReusesSameShapeNetworks) {
  auto bundle = grammars::make_toy_grammar();
  engine::EngineSet engines(bundle.grammar);
  engine::NetworkScratch scratch;
  // Two same-length sentences: second acquire reinits in place.
  auto r1 = engine::run_backend(engines, engine::Backend::Serial,
                                bundle.tag("The program runs"), &scratch);
  auto r2 = engine::run_backend(engines, engine::Backend::Serial,
                                bundle.tag("A dog halts"), &scratch);
  EXPECT_EQ(scratch.pooled_shapes(), 1u);
  EXPECT_EQ(scratch.reuses(), 1u);
  EXPECT_TRUE(r1.accepted);
  EXPECT_TRUE(r2.accepted);

  // The reused network must behave exactly like a fresh one.
  cdg::SequentialParser seq(bundle.grammar);
  cdg::Network fresh = seq.make_network(bundle.tag("A dog halts"));
  seq.parse(fresh);
  std::vector<util::DynBitset> domains;
  for (int r = 0; r < fresh.num_roles(); ++r) domains.emplace_back(fresh.domain(r));
  EXPECT_EQ(r2.domains_hash, engine::hash_domains(domains));
}

// A pooled network honours the options of every acquire: a lazy-arc
// network reused for a new sentence builds no arcs before its first
// binary constraint and costs exactly what a fresh lazy network does.
TEST(NetworkScratch, PooledLazyNetworkStaysLazy) {
  auto bundle = grammars::make_english_grammar();
  grammars::SentenceGenerator gen(bundle, 5);
  cdg::ParseOptions popt;
  popt.prebuild_arcs = false;
  const cdg::SequentialParser seq(bundle.grammar, popt);
  cdg::NetworkOptions lazy;
  lazy.prebuild_arcs = false;
  engine::NetworkScratch scratch;
  const auto run = [&](cdg::Network& net) {
    seq.run_unary(net);
    EXPECT_FALSE(net.arcs_built());
    seq.run_binary(net);
    EXPECT_TRUE(net.arcs_built());
    net.filter();
  };
  for (int round = 0; round < 3; ++round) {
    const cdg::Sentence s = gen.generate_sentence(6);
    cdg::Network& pooled = scratch.acquire(bundle.grammar, s, lazy);
    EXPECT_FALSE(pooled.arcs_built()) << "round " << round;
    run(pooled);
    cdg::Network fresh = seq.make_network(s);
    run(fresh);
    EXPECT_TRUE(pooled.counters() == fresh.counters()) << "round " << round;
  }
  EXPECT_EQ(scratch.reuses(), 2u);
  // An eager acquire of the same pooled network prebuilds again.
  cdg::NetworkOptions eager;
  EXPECT_TRUE(
      scratch.acquire(bundle.grammar, gen.generate_sentence(6), eager)
          .arcs_built());
}

TEST(NetworkScratch, ReinitRejectsLengthMismatch) {
  auto bundle = grammars::make_toy_grammar();
  cdg::Network net(bundle.grammar, bundle.tag("The program runs"));
  cdg::Sentence longer = bundle.tag("The program runs");
  longer.words.push_back("runs");
  longer.cats.push_back(longer.cats.back());
  EXPECT_FALSE(net.reinit(longer));
  EXPECT_TRUE(net.reinit(bundle.tag("A dog halts")));
}

}  // namespace
