// The foundation-model workflow the paper positions itself in (Sec. II-B,
// VI): pretrain on the multi-source aggregate, persist the checkpoint,
// then FINE-TUNE the restored model on one target domain (here: OC2022
// oxide catalysis) and compare against training from scratch on the same
// small target dataset.
//
//   ./build/examples/finetune [pretrain_MiB] [target_graphs]

#include <cstdlib>
#include <iostream>

#include "sgnn/nn/model_io.hpp"
#include "sgnn/sgnn.hpp"

int main(int argc, char** argv) {
  using namespace sgnn;

  const std::uint64_t pretrain_mib =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 3;
  const std::size_t target_graphs =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 24;

  const ReferencePotential potential;

  // --- Pretraining corpus: the full aggregate -----------------------------
  DatasetOptions data_options;
  data_options.target_bytes = pretrain_mib << 20;
  data_options.seed = 321;
  std::cout << "generating ~" << pretrain_mib
            << " MiB multi-source pretraining corpus...\n";
  const AggregatedDataset pretrain =
      AggregatedDataset::generate(data_options, potential);
  std::vector<const MolecularGraph*> pretrain_view;
  for (const auto& g : pretrain.graphs()) pretrain_view.push_back(&g);

  // --- Target domain: a small OC2022-only dataset -------------------------
  Rng rng(99);
  std::vector<MolecularGraph> target;
  for (std::size_t i = 0; i < target_graphs; ++i) {
    target.push_back(generate_sample(DataSource::kOC2022, rng, potential));
  }
  std::vector<const MolecularGraph*> target_train;
  std::vector<const MolecularGraph*> target_test;
  for (std::size_t i = 0; i < target.size(); ++i) {
    (i % 3 == 0 ? target_test : target_train).push_back(&target[i]);
  }
  std::cout << "target domain: " << target_train.size() << " train / "
            << target_test.size() << " test OC2022 graphs\n\n";

  ModelConfig config;
  config.hidden_dim = 40;
  config.num_layers = 3;

  // --- Pretrain and checkpoint the foundation model -----------------------
  const std::string checkpoint = "finetune_foundation.sgck";
  const EnergyBaseline baseline = EnergyBaseline::fit(pretrain_view);
  {
    EGNNModel foundation(config);
    TrainOptions options;
    options.epochs = 8;
    options.batch_size = 8;
    options.adam.learning_rate = 2e-3;
    Trainer trainer(foundation, options);
    trainer.set_energy_baseline(baseline);
    DataLoader loader(pretrain_view, options.batch_size, 5);
    std::cout << "pretraining foundation model ("
              << foundation.num_parameters() << " params)...\n";
    const auto history = trainer.fit(loader);
    std::cout << "pretrain loss: " << history.front().mean_train_loss
              << " -> " << history.back().mean_train_loss << "\n\n";
    save_model(foundation, checkpoint);
  }

  // --- Fine-tune vs from-scratch on the target domain ---------------------
  const auto adapt = [&](bool from_checkpoint) {
    EGNNModel model(config);
    if (from_checkpoint) load_parameters_into(model, checkpoint);
    TrainOptions options;
    options.epochs = 6;
    options.batch_size = 4;
    options.adam.learning_rate = from_checkpoint ? 5e-4 : 2e-3;
    Trainer trainer(model, options);
    trainer.set_energy_baseline(baseline);
    DataLoader loader(target_train, options.batch_size, 5);
    const EvalMetrics before = trainer.evaluate(target_test, 8);
    trainer.fit(loader);
    const EvalMetrics after = trainer.evaluate(target_test, 8);
    return std::make_pair(before, after);
  };

  std::cout << "adapting to OC2022 (fine-tune vs from scratch)...\n";
  const auto [ft_before, ft_after] = adapt(true);
  const auto [fs_before, fs_after] = adapt(false);

  Table table({"Setting", "Test loss before", "Test loss after",
               "Force MAE after"});
  table.add_row({"fine-tuned from foundation", Table::fixed(ft_before.loss, 3),
                 Table::fixed(ft_after.loss, 3),
                 Table::fixed(ft_after.force_mae, 4)});
  table.add_row({"from scratch", Table::fixed(fs_before.loss, 3),
                 Table::fixed(fs_after.loss, 3),
                 Table::fixed(fs_after.force_mae, 4)});
  std::cout << "\n" << table.to_ascii("Transfer to the OC2022 domain");
  std::cout << "\nThe foundation checkpoint starts far ahead (its zero-shot "
               "loss reflects the\npretraining) and typically stays ahead "
               "after the same adaptation budget —\nthe premise of graph "
               "foundation models (paper Sec. II-B).\n";

  std::remove(checkpoint.c_str());
  return 0;
}
