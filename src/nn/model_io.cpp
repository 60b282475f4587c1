#include "sgnn/nn/model_io.hpp"

#include <cstring>
#include <sstream>
#include <vector>

#include "sgnn/store/serialize.hpp"
#include "sgnn/util/error.hpp"

namespace sgnn {

namespace {

void write_config(std::ostream& out, const ModelConfig& config) {
  write_raw(out, config.hidden_dim);
  write_raw(out, config.num_layers);
  write_raw(out, config.num_species);
  write_raw(out, config.num_rbf);
  write_raw(out, config.cutoff);
  write_raw(out, static_cast<std::uint8_t>(config.residual ? 1 : 0));
  write_raw(out, config.coord_scale);
  write_raw(out, static_cast<std::int32_t>(config.kernel));
  write_raw(out, static_cast<std::int32_t>(config.force_head));
  write_raw(out, static_cast<std::uint8_t>(config.predict_dipole ? 1 : 0));
  write_raw(out, config.seed);
}

ModelConfig read_config(std::istream& in) {
  ModelConfig config;
  config.hidden_dim = read_raw<std::int64_t>(in);
  config.num_layers = read_raw<std::int64_t>(in);
  config.num_species = read_raw<std::int64_t>(in);
  config.num_rbf = read_raw<std::int64_t>(in);
  config.cutoff = read_raw<double>(in);
  config.residual = read_raw<std::uint8_t>(in) != 0;
  config.coord_scale = read_raw<double>(in);
  const auto kernel = read_raw<std::int32_t>(in);
  SGNN_CHECK(kernel >= 0 && kernel <= 2, "invalid kernel in model file");
  config.kernel = static_cast<MessagePassingKernel>(kernel);
  const auto head = read_raw<std::int32_t>(in);
  SGNN_CHECK(head >= 0 && head <= 1, "invalid force head in model file");
  config.force_head = static_cast<ForceHead>(head);
  config.predict_dipole = read_raw<std::uint8_t>(in) != 0;
  config.seed = read_raw<std::uint64_t>(in);
  SGNN_CHECK(config.hidden_dim > 0 && config.num_layers > 0 &&
                 config.num_species > 0 && config.num_rbf > 0,
             "model file carries an invalid config");
  return config;
}

void restore_parameters(std::istream& in, EGNNModel& model) {
  auto params = model.parameters();
  const auto count = read_raw<std::uint64_t>(in);
  SGNN_CHECK(count == params.size(),
             "model file has " << count << " parameter tensors, model needs "
                               << params.size());
  // Two-phase restore: stage every tensor's data first, so a truncation or
  // shape mismatch discovered at parameter k cannot leave the model torn
  // (parameters 0..k-1 new, the rest old). Live weights are only touched
  // after the whole payload has validated.
  std::vector<std::vector<real>> staged;
  staged.reserve(params.size());
  for (const auto& p : params) {
    const auto rank = read_raw<std::uint64_t>(in);
    SGNN_CHECK(rank == p.rank(), "parameter rank mismatch");
    for (std::size_t axis = 0; axis < rank; ++axis) {
      const auto dim = read_raw<std::int64_t>(in);
      SGNN_CHECK(dim == p.dim(axis), "parameter shape mismatch on axis "
                                         << axis << ": file has " << dim
                                         << ", model has " << p.dim(axis));
    }
    std::vector<real> data(static_cast<std::size_t>(p.numel()));
    // sgnn-lint: allow(aliasing): byte view of a trivially-copyable buffer
    // for bulk stream IO, mirroring model_payload_bytes's writer.
    in.read(reinterpret_cast<char*>(data.data()),
            static_cast<std::streamsize>(data.size() * sizeof(real)));
    SGNN_CHECK(in.good(), "truncated parameter data");
    staged.push_back(std::move(data));
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    std::memcpy(params[i].data(), staged[i].data(),
                staged[i].size() * sizeof(real));
  }
}

/// The "model" section of the snapshot file at `path`.
std::string read_model_section(const std::string& path) {
  return SnapshotView(read_snapshot_file(path)).bytes("model");
}

}  // namespace

std::string model_payload_bytes(const EGNNModel& model) {
  std::ostringstream out;
  write_config(out, model.config());
  const auto params = model.parameters();
  write_raw(out, static_cast<std::uint64_t>(params.size()));
  for (const auto& p : params) {
    write_raw(out, static_cast<std::uint64_t>(p.rank()));
    for (std::size_t axis = 0; axis < p.rank(); ++axis) {
      write_raw(out, p.dim(axis));
    }
    const real* data = p.data();
    // sgnn-lint: allow(aliasing): byte view of a trivially-copyable tensor
    // buffer for bulk stream IO; a per-element memcpy loop would be slower
    // and char-pointer access is always defined.
    out.write(reinterpret_cast<const char*>(data),
              static_cast<std::streamsize>(
                  static_cast<std::size_t>(p.numel()) * sizeof(real)));
  }
  return out.str();
}

void save_model(const EGNNModel& model, const std::string& path) {
  SnapshotBuilder builder;
  builder.add_bytes("model", model_payload_bytes(model));
  write_snapshot_file(path, builder.payload());
}

std::unique_ptr<EGNNModel> load_model(const std::string& path) {
  std::istringstream in(read_model_section(path));
  auto model = std::make_unique<EGNNModel>(read_config(in));
  restore_parameters(in, *model);
  return model;
}

void load_parameters_into(EGNNModel& model, const std::string& path) {
  load_model_payload(model, read_model_section(path));
}

void load_model_payload(EGNNModel& model, const std::string& payload) {
  std::istringstream in(payload);
  const ModelConfig config = read_config(in);
  SGNN_CHECK(config.hidden_dim == model.config().hidden_dim &&
                 config.num_layers == model.config().num_layers &&
                 config.num_species == model.config().num_species &&
                 config.num_rbf == model.config().num_rbf &&
                 config.kernel == model.config().kernel &&
                 config.force_head == model.config().force_head &&
                 config.predict_dipole == model.config().predict_dipole,
             "model payload architecture does not match the target model");
  restore_parameters(in, model);
}

ModelConfig peek_model_config(const std::string& path) {
  std::istringstream in(read_model_section(path));
  return read_config(in);
}

}  // namespace sgnn
