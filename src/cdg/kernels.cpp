#include "cdg/kernels.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace parsec::cdg::kernels {

void zero_row_col(NetworkArena& a, int role, int rv) {
  const int R = a.roles();
  const std::size_t wi =
      static_cast<std::size_t>(rv) / NetworkArena::kWordBits;
  const Word bit = Word{1}
                   << (static_cast<std::size_t>(rv) % NetworkArena::kWordBits);
  for (int other = 0; other < R; ++other) {
    if (other == role) continue;
    if (role < other) {
      a.arc(role, other).zero_row(static_cast<std::size_t>(rv));
    } else {
      // Column side: arc bits only exist at alive×alive positions, so a
      // bit in column rv can only live in a still-alive row of `other`
      // (a dead row was zeroed by its own elimination).  Walking the
      // partner's alive values replaces D strided per-row clears with
      // |alive| of them.
      util::BitMatrixView m = a.arc(other, role);
      const util::ConstBitSpan dom =
          static_cast<const NetworkArena&>(a).domain(other);
      dom.for_each([&](std::size_t r) { m.row_words(r)[wi] &= ~bit; });
    }
  }
}

void zero_rows_cols(NetworkArena& a, int role, std::span<const int> rvs,
                    util::BitSpan scratch) {
  const int R = a.roles();
  scratch.reset_all();
  for (int rv : rvs) scratch.set(static_cast<std::size_t>(rv));
  const Word* vm = scratch.words();
  const std::size_t W = scratch.word_count();
  for (int other = 0; other < R; ++other) {
    if (other == role) continue;
    if (role < other) {
      util::BitMatrixView m = a.arc(role, other);
      for (int rv : rvs) m.zero_row(static_cast<std::size_t>(rv));
    } else {
      // One ANDN pass per alive partner row clears every victim column
      // at once; per-victim strided clears would cost |rvs| passes.
      util::BitMatrixView m = a.arc(other, role);
      const util::ConstBitSpan dom =
          static_cast<const NetworkArena&>(a).domain(other);
      dom.for_each([&](std::size_t r) {
        Word* row = m.row_words(r);
        for (std::size_t wi = 0; wi < W; ++wi) row[wi] &= ~vm[wi];
      });
    }
  }
}

bool supported(const NetworkArena& a, int role, int rv) {
  const int R = a.roles();
  for (int other = 0; other < R; ++other) {
    if (other == role) continue;
    const bool ok =
        role < other
            ? a.arc(role, other).row_any(static_cast<std::size_t>(rv))
            : a.arc(other, role).col_any(static_cast<std::size_t>(rv));
    if (!ok) return false;
  }
  return true;
}

std::size_t count_supports(NetworkArena& a) {
  auto counts = a.support_counts();
  std::fill(counts.begin(), counts.end(), 0);
  const int R = a.roles();
  const std::size_t D = static_cast<std::size_t>(a.domain_size());
  std::size_t words_scanned = 0;
  for (int ra = 0; ra < R; ++ra) {
    for (int rb = ra + 1; rb < R; ++rb) {
      const auto m = static_cast<const NetworkArena&>(a).arc(ra, rb);
      a.domain(ra).for_each([&](std::size_t i) {
        const auto row = m.row_span(i);
        words_scanned += row.word_count();
        // Row side: one popcount per alive value.  Arc bits exist only
        // at alive×alive positions, so the whole-row count equals the
        // count over the partner's alive values.
        counts[(static_cast<std::size_t>(ra) * D + i) * R + rb] =
            static_cast<std::int32_t>(row.count());
        // Column side: scatter the row's set bits onto the partners.
        row.for_each([&](std::size_t j) {
          ++counts[(static_cast<std::size_t>(rb) * D + j) * R + ra];
        });
      });
    }
  }
  return words_scanned;
}

void propagate_unary(const CompiledConstraint& c, const Sentence& sent,
                     const RvIndexer& ix, RoleId rid, WordPos w,
                     util::ConstBitSpan domain, std::vector<int>& victims,
                     std::size_t* evals) {
  EvalContext ctx;
  ctx.sentence = &sent;
  domain.for_each([&](std::size_t rv) {
    ctx.x = Binding{ix.decode(static_cast<int>(rv)), rid, w};
    if (evals) ++*evals;
    if (!eval_compiled(c, ctx)) victims.push_back(static_cast<int>(rv));
  });
}

void propagate_unary(const CompiledConstraint& c, const Sentence& sent,
                     const RvIndexer& ix, RoleId rid, WordPos w,
                     util::ConstBitSpan domain, std::span<std::uint8_t> flags,
                     std::size_t* evals) {
  EvalContext ctx;
  ctx.sentence = &sent;
  domain.for_each([&](std::size_t rv) {
    ctx.x = Binding{ix.decode(static_cast<int>(rv)), rid, w};
    if (evals) ++*evals;
    if (!eval_compiled(c, ctx)) flags[rv] = 1;
  });
}

int sweep_binary(const CompiledConstraint& c, const Sentence& sent,
                 util::BitMatrixView m, std::span<const int> alive_a,
                 std::span<const Binding> bind_a, std::span<const int> alive_b,
                 std::span<const Binding> bind_b, std::size_t* evals) {
  EvalContext ctx;
  ctx.sentence = &sent;
  int zeroed = 0;
  for (std::size_t ii = 0; ii < alive_a.size(); ++ii) {
    const std::size_t i = static_cast<std::size_t>(alive_a[ii]);
    for (std::size_t jj = 0; jj < alive_b.size(); ++jj) {
      const std::size_t j = static_cast<std::size_t>(alive_b[jj]);
      if (!m.test(i, j)) continue;
      // Both variable assignments (the constraint's x/y are symmetric
      // slots, not positional); both are charged up front.
      if (evals) *evals += 2;
      ctx.x = bind_a[ii];
      ctx.y = bind_b[jj];
      bool ok = eval_compiled(c, ctx);
      if (ok) {
        ctx.x = bind_b[jj];
        ctx.y = bind_a[ii];
        ok = eval_compiled(c, ctx);
      }
      if (!ok) {
        m.reset(i, j);
        ++zeroed;
      }
    }
  }
  return zeroed;
}

namespace {

/// Clears bit range [lo, hi) of `s`, word-wise.
void clear_run(util::BitSpan s, std::size_t lo, std::size_t hi) {
  constexpr std::size_t B = NetworkArena::kWordBits;
  Word* w = s.words();
  for (std::size_t wi = lo / B; wi * B < hi; ++wi) {
    const std::size_t base = wi * B;
    const std::size_t from = lo > base ? lo - base : 0;
    const std::size_t to = hi - base < B ? hi - base : B;
    const Word m = (to == B ? ~Word{0} : (Word{1} << to) - 1) &
                   ~((Word{1} << from) - 1);
    w[wi] &= ~m;
  }
}

}  // namespace

std::size_t MaskCache::ensure(NetworkArena& a, const FactoredConstraint& c,
                              std::size_t k, const Sentence& sent,
                              const RvIndexer& ix, int roles_per_word) {
  assert(k < gen_.size());
  if (built(a, k)) return 0;
  const int R = a.roles();
  const int L = ix.num_labels();
  const int M = ix.n() + 1;  // modifiee slots per label run
  const std::vector<HoistedTerm>* term_sets[kSlotsPerConstraint] = {
      &c.ante_x_terms, &c.ante_y_terms, &c.cons_x_terms, &c.cons_y_terms};
  std::size_t evals = 0;

  // ANDs one term's truth pattern into `msk` at the cheapest
  // granularity its dependences allow.  The dense rv axis is
  // label-major (rv = label*M + mod), so a mod-independent term holds
  // one value per whole M-bit label run, and a label-independent term
  // holds one value per mod offset across every run.
  const auto apply_term = [&](const HoistedTerm& t, util::BitSpan msk,
                              RoleId rid, WordPos pos,
                              util::ConstBitSpan dom) {
    Binding b;
    b.role = rid;
    b.pos = pos;
    if (t.uses_lab && t.uses_mod) {
      // Genuinely per-value: evaluate over values alive at build time.
      // Dead positions keep stale bits, but the sweep reads mask bits
      // only at alive rows and set arc bits (alive×alive), and domains
      // only ever shrink after the build.
      dom.for_each([&](std::size_t rv) {
        b.rv = ix.decode(static_cast<int>(rv));
        ++evals;
        if (!eval_hoisted(t.prog, sent, b)) msk.reset(rv);
      });
    } else if (t.uses_lab) {
      for (LabelId l = 0; l < L; ++l) {
        b.rv = RoleValue{l, 0};
        ++evals;
        if (!eval_hoisted(t.prog, sent, b))
          clear_run(msk, static_cast<std::size_t>(l) * M,
                    static_cast<std::size_t>(l + 1) * M);
      }
    } else if (t.uses_mod) {
      for (WordPos m = 0; m < M; ++m) {
        b.rv = RoleValue{0, m};
        ++evals;
        if (!eval_hoisted(t.prog, sent, b))
          for (LabelId l = 0; l < L; ++l)
            msk.reset(static_cast<std::size_t>(l) * M + m);
      }
    } else {
      // Constant over the whole domain (site-only or literal).
      ++evals;
      b.rv = RoleValue{0, 0};
      if (!eval_hoisted(t.prog, sent, b)) msk.reset_all();
    }
  };

  for (std::size_t p = 0; p < kSlotsPerConstraint; ++p) {
    const std::size_t slot = k * kSlotsPerConstraint + p;
    const std::vector<HoistedTerm>& terms = *term_sets[p];
    // Site-independent terms have one truth pattern shared by every
    // role: build it once on role 0's span, then word-copy.  Per-value
    // terms are excluded (they are evaluated over each role's own
    // alive set), as are site-dependent ones.
    util::BitSpan m0 = a.mask(slot, 0);
    m0.set_all();
    bool per_role = false;
    for (const HoistedTerm& t : terms) {
      if (t.uses_site || (t.uses_lab && t.uses_mod))
        per_role = true;
      else
        apply_term(t, m0, 0, 1, a.domain(0));  // site unread by the term
    }
    for (int role = 1; role < R; ++role) a.mask(slot, role).copy_from(m0);
    if (!per_role) continue;
    for (int role = 0; role < R; ++role) {
      const RoleId rid = static_cast<RoleId>(role % roles_per_word);
      const WordPos pos = static_cast<WordPos>(role / roles_per_word + 1);
      for (const HoistedTerm& t : terms)
        if (t.uses_site || (t.uses_lab && t.uses_mod))
          apply_term(t, a.mask(slot, role), rid, pos, a.domain(role));
    }
  }
  gen_[k] = a.reinits() + 1;
  ++builds_;
  return evals;
}

int sweep_binary_masked(const FactoredConstraint& c, const Sentence& sent,
                        util::BitMatrixView m, util::ConstBitSpan dom_a,
                        const FactoredMasks& ma, RoleId rid_a, WordPos wa,
                        const FactoredMasks& mb, RoleId rid_b, WordPos wb,
                        const RvIndexer& ix, const MaskedCounters& counters,
                        bool apply_residual) {
  const std::size_t W = m.row_word_count();
  // Partner-side mask words (bit j = does b's value j satisfy the part).
  const Word* AX = mb.ante_x.words();
  const Word* AY = mb.ante_y.words();
  const Word* CX = mb.cons_x.words();
  const Word* CY = mb.cons_y.words();
  EvalContext ctx;
  ctx.sentence = &sent;
  std::size_t vm = 0, masked = 0, rows = 0;
  int zeroed = 0;
  dom_a.for_each([&](std::size_t i) {
    ++rows;
    const SweepRowConsts k =
        sweep_row_consts(c, ma.ante_x.test(i), ma.ante_y.test(i),
                         ma.cons_x.test(i), ma.cons_y.test(i));
    Word* row = m.row_words(i);
    const Binding bind_a{ix.decode(static_cast<int>(i)), rid_a, wa};
    for (std::size_t wi = 0; wi < W; ++wi) {
      if (!row[wi]) continue;  // nothing to decide, nothing to count
      const SweepWord s =
          sweep_word(row[wi], AX[wi], AY[wi], CX[wi], CY[wi], k);
      masked += static_cast<std::size_t>(std::popcount(row[wi]) -
                                         std::popcount(s.und));
      zeroed += std::popcount(s.dead);
      row[wi] = s.row;
      if (!apply_residual) continue;
      // Residual VM, bits ascending.  A pair's verdict depends only on
      // (sentence, i, j), never on the matrix state.
      for (Word u = s.und; u; u &= u - 1) {
        const int bit = std::countr_zero(u);
        const std::size_t j = wi * NetworkArena::kWordBits +
                              static_cast<std::size_t>(bit);
        vm += 2;
        ctx.x = bind_a;
        ctx.y = Binding{ix.decode(static_cast<int>(j)), rid_b, wb};
        bool ok = eval_compiled(c.full, ctx);
        if (ok) {
          std::swap(ctx.x, ctx.y);
          ok = eval_compiled(c.full, ctx);
        }
        if (!ok) {
          row[wi] &= ~(Word{1} << bit);
          ++zeroed;
        }
      }
    }
  });
  if (counters.vm_evals) *counters.vm_evals += vm;
  if (counters.masked) *counters.masked += masked;
  if (counters.tile_sweeps) *counters.tile_sweeps += rows;
  if (counters.lane_words) *counters.lane_words += rows * W;
  return zeroed;
}

namespace {

/// Shared guard step of the masked unary kernels: true when the
/// role-value-independent guard fails, i.e. the whole domain is
/// vacuously satisfied and the per-value sweep can be skipped.
bool unary_guard_fails(const FactoredConstraint& c, const Sentence& sent,
                       RoleId rid, WordPos w, util::ConstBitSpan domain,
                       const MaskedCounters& counters) {
  if (c.unary_guard.code.empty()) return false;
  if (counters.build_evals) ++*counters.build_evals;
  const Binding b{RoleValue{}, rid, w};  // rv unused: guard is rv-free
  if (eval_hoisted(c.unary_guard, sent, b)) return false;
  if (counters.masked) *counters.masked += domain.count();
  return true;
}

}  // namespace

void propagate_unary_masked(const FactoredConstraint& c, const Sentence& sent,
                            const RvIndexer& ix, RoleId rid, WordPos w,
                            util::ConstBitSpan domain,
                            std::vector<int>& victims,
                            const MaskedCounters& counters) {
  if (unary_guard_fails(c, sent, rid, w, domain, counters)) return;
  propagate_unary(c.unary_rest, sent, ix, rid, w, domain, victims,
                  counters.vm_evals);
}

void propagate_unary_masked(const FactoredConstraint& c, const Sentence& sent,
                            const RvIndexer& ix, RoleId rid, WordPos w,
                            util::ConstBitSpan domain,
                            std::span<std::uint8_t> flags,
                            const MaskedCounters& counters) {
  if (unary_guard_fails(c, sent, rid, w, domain, counters)) return;
  propagate_unary(c.unary_rest, sent, ix, rid, w, domain, flags,
                  counters.vm_evals);
}

void support_mask(const NetworkArena& a, int role, util::BitSpan out) {
  assert(out.size() == static_cast<std::size_t>(a.domain_size()));
  // Dead values are unsupported by definition (their rows/columns are
  // zeroed), so start from the domain and only ever clear bits.
  out.copy_from(a.domain(role));
  const int R = a.roles();
  const std::size_t W = out.word_count();
  Word* ow = out.words();
  for (int other = 0; other < R; ++other) {
    if (other == role) continue;
    if (role < other) {
      // Row side: one row_any bit per value still in the running.
      // Iterating `out` (not the domain) skips values an earlier arc
      // already disqualified.
      const auto m = a.arc(role, other);
      out.for_each([&](std::size_t rv) {
        if (!m.row_any(rv)) out.reset(rv);
      });
    } else {
      // Column side: OR-fold the partner's ALIVE rows word-by-word,
      // turning D strided per-column probes into one sequential pass
      // proportional to the live network (dead rows are all-zero and
      // contribute nothing).  Blocked so the accumulator stays on the
      // stack for any domain size.
      const auto m = a.arc(other, role);
      const util::ConstBitSpan dom_b = a.domain(other);
      constexpr std::size_t kBlock = 64;
      Word acc[kBlock];
      for (std::size_t w0 = 0; w0 < W; w0 += kBlock) {
        const std::size_t nb = std::min(kBlock, W - w0);
        for (std::size_t b = 0; b < nb; ++b) acc[b] = 0;
        dom_b.for_each([&](std::size_t r) {
          const Word* row = m.row_words(r) + w0;
          for (std::size_t b = 0; b < nb; ++b) acc[b] |= row[b];
        });
        for (std::size_t b = 0; b < nb; ++b) ow[w0 + b] &= acc[b];
      }
    }
  }
}

}  // namespace parsec::cdg::kernels
