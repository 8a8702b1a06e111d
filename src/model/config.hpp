#pragma once
// Model zoo: the four evaluation models of Table 1.

#include <string>
#include <vector>

#include "nn/op_cost.hpp"

namespace latte {

/// A self-attention-centric model: a stack of identical encoder layers.
struct ModelConfig {
  std::string name;
  std::size_t layers = 12;
  EncoderConfig encoder;
};

/// Table 1: DistilBERT, 6 layers, hidden 768, 12 heads.
ModelConfig DistilBert();
/// Table 1: BERT-base, 12 layers, hidden 768, 12 heads.
ModelConfig BertBase();
/// Table 1: RoBERTa, 12 layers, hidden 768, 12 heads (BERT-base shape).
ModelConfig Roberta();
/// Table 1: BERT-large, 24 layers, hidden 1024, 16 heads.
ModelConfig BertLarge();

/// All four models, Table 1 order.
std::vector<ModelConfig> ModelZoo();

}  // namespace latte
