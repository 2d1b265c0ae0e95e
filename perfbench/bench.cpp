#include "bench.h"

#include <atomic>
#include <fstream>
#include <thread>
#include <unordered_map>

#include "cdg/parser.h"
#include "parsec/backend.h"

namespace perfbench {

double peak_rss_mb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
  }
  return 0.0;
}

JsonValue length_histogram(const std::vector<int>& lengths) {
  std::map<int, double> counts;
  for (int n : lengths) counts[n] += 1.0;
  std::map<std::string, JsonValue> out;
  for (const auto& [n, c] : counts)
    out[std::to_string(n)] = JsonValue::make_number(c);
  return JsonValue::make_object(std::move(out));
}

std::vector<std::uint64_t> reference_hashes(
    const parsec::cdg::Grammar& g,
    const std::vector<parsec::cdg::Sentence>& sentences, int threads) {
  parsec::cdg::ParseOptions plain;
  plain.use_masks = false;
  const parsec::cdg::SequentialParser parser(g, plain);
  // Repeated sentences are parsed once.
  std::unordered_map<std::uint64_t, std::size_t> first;
  std::vector<std::size_t> distinct, slot(sentences.size());
  for (std::size_t i = 0; i < sentences.size(); ++i) {
    auto [it, fresh] = first.emplace(
        parsec::engine::hash_sentence(sentences[i]), distinct.size());
    if (fresh) distinct.push_back(i);
    slot[i] = it->second;
  }
  std::vector<std::uint64_t> hashes(distinct.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t k; (k = next.fetch_add(1)) < distinct.size();) {
        parsec::cdg::Network net = parser.make_network(sentences[distinct[k]]);
        parser.parse(net);
        hashes[k] = parsec::engine::hash_domains(net);
      }
    });
  }
  for (auto& t : pool) t.join();
  std::vector<std::uint64_t> out(sentences.size());
  for (std::size_t i = 0; i < sentences.size(); ++i) out[i] = hashes[slot[i]];
  return out;
}

}  // namespace perfbench
