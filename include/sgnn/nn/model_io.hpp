#pragma once

#include <memory>
#include <string>

#include "sgnn/nn/egnn.hpp"

namespace sgnn {

/// Model files: persists a ModelConfig plus every parameter tensor, and
/// restores them. A model file is an SGCK snapshot (sgnn/store/
/// serialize.hpp) with one section, "model" = model_payload_bytes(model),
/// so every training checkpoint (which carries the same "model" section
/// next to its optimizer state) is also a loadable model file. Saves are
/// atomic and durable (tmp file + fsync + rename). A saved model ships for
/// inference without its Adam moments.
void save_model(const EGNNModel& model, const std::string& path);

/// Reconstructs the model (config + weights) from a model file or any
/// training snapshot. Throws Error on a missing, truncated, corrupted, or
/// incompatible file. (Modules are pinned in memory, hence the unique_ptr.)
std::unique_ptr<EGNNModel> load_model(const std::string& path);

/// Reads just the config (the file is verified, but no model is built).
ModelConfig peek_model_config(const std::string& path);

/// Restores weights into an existing model whose config must match.
void load_parameters_into(EGNNModel& model, const std::string& path);

/// The "model" section bytes (config fields, u64 param_count, then per
/// parameter u64 rank, i64 dims..., f64 data...; no container framing).
/// Also what sgnn::serve::Server::swap_weights takes.
std::string model_payload_bytes(const EGNNModel& model);

/// Restores parameters from payload bytes produced by model_payload_bytes;
/// throws Error on architecture mismatch or truncation.
void load_model_payload(EGNNModel& model, const std::string& payload);

}  // namespace sgnn
