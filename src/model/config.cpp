#include "model/config.hpp"

namespace latte {
namespace {

ModelConfig Make(std::string name, std::size_t layers, std::size_t hidden,
                 std::size_t heads) {
  ModelConfig m;
  m.name = std::move(name);
  m.layers = layers;
  m.encoder.hidden = hidden;
  m.encoder.heads = heads;
  return m;
}

}  // namespace

ModelConfig DistilBert() { return Make("DistilBERT", 6, 768, 12); }
ModelConfig BertBase() { return Make("BERT-base", 12, 768, 12); }
ModelConfig Roberta() { return Make("RoBERTa", 12, 768, 12); }
ModelConfig BertLarge() { return Make("BERT-large", 24, 1024, 16); }

std::vector<ModelConfig> ModelZoo() {
  return {DistilBert(), BertBase(), Roberta(), BertLarge()};
}

}  // namespace latte
