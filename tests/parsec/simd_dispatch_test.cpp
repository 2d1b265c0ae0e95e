// Cross-kernel identity for the masked sweep and the runtime-dispatched
// SIMD layer (cdg/simd.h): every backend, the per-pair VM path and the
// SoA batch parser on every ISA tier (scalar / AVX2 / AVX-512, clamped
// to what the host supports) must all reach the same fixpoint bit for
// bit — the dispatch tier and the batching are pure throughput knobs.
// This is the test-side half of the CI forced-scalar leg.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cdg/batch.h"
#include "cdg/kernels.h"
#include "cdg/parser.h"
#include "cdg/simd.h"
#include "grammars/english_grammar.h"
#include "grammars/sentence_gen.h"
#include "grammars/toy_grammar.h"
#include "parsec/backend.h"
#include "util/bitset.h"
#include "util/rng.h"

namespace {

using namespace parsec;
using cdg::simd::IsaTier;
using cdg::simd::ScopedTier;

std::vector<std::string> random_words(util::Rng& rng, int n) {
  static const std::vector<std::string> pool{
      "The", "a", "program", "dog", "compiler", "runs", "halts", "crashes"};
  std::vector<std::string> words;
  for (int i = 0; i < n; ++i) words.push_back(rng.pick(pool));
  return words;
}

struct Case {
  bool toy = false;
  cdg::Sentence s;
};

// The 60-sentence fuzz corpus: 30 random toy word strings (grammatical
// or not) + 30 generated English sentences, lengths 3..11.
std::vector<Case> fuzz_corpus(const grammars::CdgBundle& toy,
                              const grammars::CdgBundle& english) {
  std::vector<Case> corpus;
  util::Rng rng(20260807);
  for (int i = 0; i < 30; ++i) {
    const int n = 1 + static_cast<int>(rng.next_below(7));
    corpus.push_back({true, toy.lexicon.tag(random_words(rng, n))});
  }
  grammars::SentenceGenerator gen(english, 31337);
  for (int i = 0; i < 30; ++i)
    corpus.push_back({false, gen.generate_sentence(3 + i % 9)});
  return corpus;
}

// Every backend must produce the reference fixpoint, and the pooled
// serial run the reference cost-counter totals of a fresh network: the
// per-word sweep algebra has no cross-word reduction, so counters are
// bit-determined too (this is what lets the perf gate pin them
// machine-independently).  The per-sentence sweep never dispatches, so
// one pass covers every tier.
TEST(SimdDispatch, AllTiersAllBackendsBitIdenticalOnFuzzCorpus) {
  auto toy = grammars::make_toy_grammar();
  auto english = grammars::make_english_grammar();
  const auto corpus = fuzz_corpus(toy, english);
  engine::EngineSet toy_engines(toy.grammar);
  engine::EngineSet eng_engines(english.grammar);
  engine::NetworkScratch scratch;

  // References: serial on a fresh network per sentence.
  struct Ref {
    std::uint64_t hash;
    bool accepted;
    std::size_t alive;
    std::uint64_t binary_evals;
    std::uint64_t tile_sweeps;
    std::uint64_t lane_words;
  };
  std::vector<Ref> refs;
  for (const Case& c : corpus) {
    const engine::BackendRun r = engine::run_backend(
        c.toy ? toy_engines : eng_engines, engine::Backend::Serial, c.s);
    refs.push_back({r.domains_hash, r.accepted, r.alive_role_values,
                    r.stats.network.effective_binary_evals(),
                    r.stats.network.tile_sweeps,
                    r.stats.network.simd_lane_words});
  }

  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const Case& c = corpus[i];
    for (auto b : engine::kAllBackends) {
      const engine::BackendRun run = engine::run_backend(
          c.toy ? toy_engines : eng_engines, b, c.s, &scratch);
      EXPECT_EQ(run.domains_hash, refs[i].hash)
          << "sentence " << i << " backend " << engine::to_string(b);
      EXPECT_EQ(run.accepted, refs[i].accepted) << "sentence " << i;
      EXPECT_EQ(run.alive_role_values, refs[i].alive) << "sentence " << i;
      if (b == engine::Backend::Serial) {
        EXPECT_EQ(run.stats.network.effective_binary_evals(),
                  refs[i].binary_evals)
            << "sentence " << i;
        EXPECT_EQ(run.stats.network.tile_sweeps, refs[i].tile_sweeps)
            << "sentence " << i;
        EXPECT_EQ(run.stats.network.simd_lane_words, refs[i].lane_words)
            << "sentence " << i;
      }
    }
  }
}

// Forcing a tier above the CPU's ceiling clamps down; forcing scalar
// always takes effect (the CI forced-scalar leg relies on it).
TEST(SimdDispatch, ForcedTierClampsAndScalarAlwaysWins) {
  {
    ScopedTier forced(IsaTier::Scalar);
    EXPECT_EQ(cdg::simd::active_tier(), IsaTier::Scalar);
  }
  {
    ScopedTier forced(IsaTier::Avx512);
    EXPECT_LE(static_cast<int>(cdg::simd::active_tier()),
              static_cast<int>(cdg::simd::detected_tier()));
  }
  EXPECT_LE(static_cast<int>(cdg::simd::active_tier()),
            static_cast<int>(cdg::simd::detected_tier()));
}

// Alive rows of the arc sweeps one binary constraint makes over `net`:
// arc (ra, rb) sweeps every alive value of ra, once per rb > ra.
std::size_t rows_swept(const cdg::Network& net) {
  const int R = net.num_roles();
  std::size_t rows = 0;
  for (int ra = 0; ra < R; ++ra)
    rows += net.domain(ra).count() * static_cast<std::size_t>(R - 1 - ra);
  return rows;
}

// tile_sweeps counts one per alive row swept — per sentence on the
// serial path, per lane in the batch — and simd_lane_words one row
// width (W words) per such row.
TEST(SimdDispatch, TileSweepsCountOneRowPassPerAliveRow) {
  auto toy = grammars::make_toy_grammar();
  const cdg::Sentence s = toy.tag("The program runs");
  cdg::SequentialParser parser(toy.grammar);
  cdg::Network net = parser.make_network(s);
  parser.run_unary(net);
  const std::size_t W = net.domain(0).word_count();
  for (std::size_t k = 0; k < parser.compiled_binary().size(); ++k) {
    const std::size_t rows = rows_swept(net);
    ASSERT_GT(rows, 0u);
    const cdg::NetworkCounters before = net.counters();
    parser.step_binary(net, k);
    EXPECT_EQ(net.counters().tile_sweeps - before.tile_sweeps, rows)
        << "constraint " << k;
    EXPECT_EQ(net.counters().simd_lane_words - before.simd_lane_words,
              rows * W)
        << "constraint " << k;
  }

  // Batch: each sweep visits the rows alive in ANY lane and charges
  // every filled lane once per such row.  The toy grammar has fewer
  // binary constraints than the batch's consistency stride, so every
  // sweep sees the post-unary union domains.
  ASSERT_LT(parser.compiled_binary().size(), 5u);
  const std::vector<cdg::Sentence> batch{toy.tag("The program runs"),
                                         toy.tag("program The runs"),
                                         toy.tag("A dog halts")};
  std::vector<cdg::Network> lanes;
  for (const cdg::Sentence& b : batch) {
    lanes.push_back(parser.make_network(b));
    parser.run_unary(lanes.back());
  }
  const int R = lanes[0].num_roles();
  std::size_t union_rows = 0;
  for (int ra = 0; ra < R; ++ra) {
    util::DynBitset alive(static_cast<std::size_t>(lanes[0].domain_size()));
    for (const cdg::Network& l : lanes)
      l.domain(ra).for_each([&](std::size_t rv) { alive.set(rv); });
    union_rows += alive.count() * static_cast<std::size_t>(R - 1 - ra);
  }
  cdg::BatchParser bp(toy.grammar);
  const auto results = bp.parse(batch);
  ASSERT_EQ(results.size(), batch.size());
  const std::size_t sweeps = parser.compiled_binary().size() * union_rows;
  for (std::size_t b = 0; b < results.size(); ++b) {
    EXPECT_EQ(results[b].counters.tile_sweeps, sweeps) << "lane " << b;
    EXPECT_EQ(results[b].counters.simd_lane_words, sweeps * W)
        << "lane " << b;
  }
}

// The masked row loop equals the plain per-pair sweep bit for bit on a
// row width that is not a multiple of 8 words (n = 5: D = 12 * 6 = 72
// bits, one full word plus an 8-bit tail word), after every constraint.
TEST(SimdDispatch, MaskedEqualsPlainOnRaggedRowWidth) {
  auto english = grammars::make_english_grammar();
  grammars::SentenceGenerator gen(english, 4242);
  cdg::ParseOptions plain_opt;
  plain_opt.use_masks = false;
  const cdg::SequentialParser masked(english.grammar);
  const cdg::SequentialParser plain(english.grammar, plain_opt);
  for (int round = 0; round < 4; ++round) {
    const cdg::Sentence s = gen.generate_sentence(5);
    cdg::Network a = masked.make_network(s);
    cdg::Network b = plain.make_network(s);
    const std::size_t W = a.domain(0).word_count();
    ASSERT_EQ(a.domain_size(), 72);
    ASSERT_EQ(W, 2u);
    masked.run_unary(a);
    plain.run_unary(b);
    for (std::size_t k = 0; k < masked.compiled_binary().size(); ++k) {
      EXPECT_EQ(masked.step_binary(a, k), plain.step_binary(b, k))
          << "round " << round << " constraint " << k;
      for (int ra = 0; ra < a.num_roles(); ++ra)
        for (int rb = ra + 1; rb < a.num_roles(); ++rb)
          ASSERT_TRUE(a.arc_matrix(ra, rb) == b.arc_matrix(ra, rb))
              << "round " << round << " constraint " << k << " arc (" << ra
              << ", " << rb << ")";
    }
    EXPECT_EQ(a.counters().effective_binary_evals(),
              b.counters().effective_binary_evals())
        << "round " << round;
  }
}

// SoA batch parsing: every lane of every batch shape (full, partial,
// singleton) must hash identically to a sequential Serial parse of the
// same sentence — on every dispatch tier.
TEST(SimdBatch, BatchLanesBitIdenticalToSequentialOnEveryTier) {
  auto english = grammars::make_english_grammar();
  grammars::SentenceGenerator gen(english, 20260807);
  engine::EngineSet engines(english.grammar);
  engine::NetworkScratch scratch;

  for (IsaTier tier : {IsaTier::Scalar, IsaTier::Avx2, IsaTier::Avx512}) {
    ScopedTier forced(tier);
    cdg::BatchParser parser(english.grammar);
    for (std::size_t batch_size : {std::size_t{1}, std::size_t{3},
                                   std::size_t{8}}) {
      for (int n : {4, 6, 9}) {
        std::vector<cdg::Sentence> batch;
        for (std::size_t b = 0; b < batch_size; ++b)
          batch.push_back(gen.generate_sentence(n));
        const auto runs = engine::run_backend_batch(parser, batch,
                                                    /*capture_domains=*/true);
        ASSERT_EQ(runs.size(), batch.size());
        for (std::size_t b = 0; b < batch.size(); ++b) {
          const engine::BackendRun ref = engine::run_backend(
              engines, engine::Backend::Serial, batch[b], &scratch);
          EXPECT_EQ(runs[b].domains_hash, ref.domains_hash)
              << "tier " << cdg::simd::tier_name(tier) << " batch "
              << batch_size << " n=" << n << " lane " << b;
          EXPECT_EQ(runs[b].accepted, ref.accepted) << "lane " << b;
          EXPECT_EQ(runs[b].alive_role_values, ref.alive_role_values)
              << "lane " << b;
          // Captured domains are the hashed bits themselves.
          EXPECT_EQ(engine::hash_domains(runs[b].domains), ref.domains_hash)
              << "lane " << b;
        }
      }
    }
  }
}

// Duplicate sentences across lanes must converge to identical lanes
// (the batch sweep treats each lane independently even in lockstep),
// and a toy-grammar batch with accept/reject mixtures splits statuses
// correctly.
TEST(SimdBatch, MixedAcceptRejectLanesSplitCorrectly) {
  auto toy = grammars::make_toy_grammar();
  engine::EngineSet engines(toy.grammar);
  cdg::BatchParser parser(toy.grammar);
  std::vector<cdg::Sentence> batch;
  for (int i = 0; i < 6; ++i)
    batch.push_back(
        toy.tag(i % 2 == 0 ? "The program runs" : "program The runs"));
  const auto runs = engine::run_backend_batch(parser, batch);
  ASSERT_EQ(runs.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(runs[static_cast<std::size_t>(i)].accepted, i % 2 == 0) << i;
    const engine::BackendRun ref = engine::run_backend(
        engines, engine::Backend::Serial, batch[static_cast<std::size_t>(i)]);
    EXPECT_EQ(runs[static_cast<std::size_t>(i)].domains_hash,
              ref.domains_hash)
        << i;
  }
  // Equal inputs, equal lanes.
  EXPECT_EQ(runs[0].domains_hash, runs[2].domains_hash);
  EXPECT_EQ(runs[1].domains_hash, runs[3].domains_hash);
}

// The batch parser is reusable across shapes: a different length
// reshapes the interleaved buffers without disturbing correctness.
TEST(SimdBatch, ReusableAcrossShapes) {
  auto english = grammars::make_english_grammar();
  grammars::SentenceGenerator gen(english, 99);
  engine::EngineSet engines(english.grammar);
  cdg::BatchParser parser(english.grammar);
  for (int round = 0; round < 2; ++round) {
    for (int n : {7, 4, 10, 4}) {
      std::vector<cdg::Sentence> batch;
      for (int b = 0; b < 5; ++b) batch.push_back(gen.generate_sentence(n));
      const auto runs = engine::run_backend_batch(parser, batch);
      for (std::size_t b = 0; b < batch.size(); ++b)
        EXPECT_EQ(runs[b].domains_hash,
                  engine::run_backend(engines, engine::Backend::Serial,
                                      batch[b])
                      .domains_hash)
            << "round " << round << " n=" << n << " lane " << b;
    }
  }
}

}  // namespace
