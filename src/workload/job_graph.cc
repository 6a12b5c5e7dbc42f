#include "workload/job_graph.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

namespace tasq {

namespace {

// Word-wise content hash over explicitly serialized fields. Every field is
// packed into fixed-width 64-bit words, so the hash is a pure function of
// graph content — independent of padding, pointers, or platform struct
// layout. Words are absorbed four at a time into four independent lanes,
// one multiply per word, so the CPU overlaps the lanes instead of waiting
// on one serial chain. Each round is a bijection of the lane for a fixed
// word and of the word for a fixed lane, so changing any single word
// always changes the result; the final merge and avalanche spread every
// input bit over the 64-bit value.
constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr uint64_t kPrime3 = 0x165667B19E3779F9ULL;

struct FingerprintLanes {
  uint64_t a = kPrime1 + kPrime2;
  uint64_t b = kPrime2;
  uint64_t c = 0;
  uint64_t d = 0 - kPrime1;
};

uint64_t FingerprintRound(uint64_t lane, uint64_t word) {
  return std::rotl((lane ^ word) * kPrime1, 29);
}

void FingerprintAbsorb(FingerprintLanes& lanes, uint64_t w0, uint64_t w1,
                       uint64_t w2, uint64_t w3) {
  lanes.a = FingerprintRound(lanes.a, w0);
  lanes.b = FingerprintRound(lanes.b, w1);
  lanes.c = FingerprintRound(lanes.c, w2);
  lanes.d = FingerprintRound(lanes.d, w3);
}

uint64_t FingerprintFinish(const FingerprintLanes& lanes, uint64_t length) {
  // Distinct rotations per lane, so exchanging two lanes' contents is not
  // a symmetry of the merge.
  uint64_t h = std::rotl(lanes.a, 1) + std::rotl(lanes.b, 7) +
               std::rotl(lanes.c, 12) + std::rotl(lanes.d, 18);
  h = FingerprintRound(h, length);
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  return h ^ (h >> 32);
}

// Two 32-bit values in one word; injective over int32 pairs.
uint64_t PackPair(int32_t low, int32_t high) {
  return static_cast<uint64_t>(static_cast<uint32_t>(low)) |
         static_cast<uint64_t>(static_cast<uint32_t>(high)) << 32;
}

uint64_t CanonicalDoubleBits(double v) {
  // Canonicalize all NaN payloads and the two zero representations so
  // numerically equal features always hash equal. The zero test is on the
  // bits (sign shifted out), which compiles to a select, not a branch.
  if (std::isnan(v)) v = std::numeric_limits<double>::quiet_NaN();
  uint64_t bits = std::bit_cast<uint64_t>(v);
  return bits << 1 == 0 ? 0 : bits;
}

}  // namespace

std::vector<std::pair<int, int>> JobGraph::Edges() const {
  std::vector<std::pair<int, int>> edges;
  for (const OperatorNode& node : operators) {
    for (int input : node.inputs) {
      edges.emplace_back(input, node.id);
    }
  }
  return edges;
}

int JobGraph::NumStages() const {
  int max_stage = -1;
  for (const OperatorNode& node : operators) {
    max_stage = std::max(max_stage, node.stage);
  }
  return max_stage + 1;
}

uint64_t JobGraph::Fingerprint() const {
  // Three 4-word blocks per operator. The input count travels in the
  // first block and the first two inputs in the last, so the usual 0-2
  // input operator needs no more; inputs past the second follow in
  // zero-padded blocks of eight, whose layout the count makes decodable.
  FingerprintLanes lanes;
  for (const OperatorNode& node : operators) {
    const OperatorFeatures& f = node.features;
    const int* inputs = node.inputs.data();
    const size_t num_inputs = node.inputs.size();
    uint64_t first_inputs = 0;
    if (num_inputs >= 2) {
      first_inputs = PackPair(inputs[0], inputs[1]);
    } else if (num_inputs == 1) {
      first_inputs = PackPair(inputs[0], 0);
    }
    FingerprintAbsorb(lanes, PackPair(node.id, node.stage),
                      PackPair(static_cast<int32_t>(node.op),
                               static_cast<int32_t>(node.partitioning)),
                      PackPair(f.num_partitions, f.num_partitioning_columns),
                      // Counts are far below 2^31, so 32 bits hold them.
                      PackPair(f.num_sort_columns,
                               static_cast<int32_t>(num_inputs)));
    FingerprintAbsorb(lanes, CanonicalDoubleBits(f.output_cardinality),
                      CanonicalDoubleBits(f.leaf_input_cardinality),
                      CanonicalDoubleBits(f.children_input_cardinality),
                      CanonicalDoubleBits(f.average_row_length));
    FingerprintAbsorb(lanes, CanonicalDoubleBits(f.cost_subtree),
                      CanonicalDoubleBits(f.cost_exclusive),
                      CanonicalDoubleBits(f.cost_total), first_inputs);
    for (size_t i = 2; i < num_inputs; i += 8) {
      uint64_t words[4] = {0, 0, 0, 0};
      for (size_t k = 0; k < 8 && i + k < num_inputs; ++k) {
        words[k / 2] |= PackPair(inputs[i + k], 0) << (32 * (k % 2));
      }
      FingerprintAbsorb(lanes, words[0], words[1], words[2], words[3]);
    }
  }
  return FingerprintFinish(lanes, operators.size());
}

Status JobGraph::Validate() const {
  if (operators.empty()) {
    return Status::InvalidArgument("job graph has no operators");
  }
  for (size_t i = 0; i < operators.size(); ++i) {
    const OperatorNode& node = operators[i];
    if (node.id != static_cast<int>(i)) {
      return Status::InvalidArgument("operator ids must be dense and ordered");
    }
    for (int input : node.inputs) {
      if (input < 0 || input >= node.id) {
        return Status::InvalidArgument(
            "operator inputs must reference earlier operators");
      }
    }
    if (node.stage < 0) {
      return Status::InvalidArgument("operator stage must be non-negative");
    }
  }
  return Status::Ok();
}

}  // namespace tasq
