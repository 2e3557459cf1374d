#include "src/core/device_specific.hpp"

#include "src/core/evaluator.hpp"

namespace ftpim {
namespace {

std::uint64_t device_stream(std::uint64_t master, std::uint64_t device_index) {
  // Must match evaluate_on_device so retraining targets the deployed map.
  return derive_seed(master, device_index + 0x0d0e);
}

}  // namespace

TrainStats device_specific_retrain(Module& model, const Dataset& train_data,
                                   const DeviceSpecificConfig& config) {
  const StuckAtFaultModel fault_model(config.p_sa, config.sa0_fraction);
  const std::uint64_t stream = device_stream(config.defect_master_seed, config.device_index);

  Trainer trainer(model, train_data, config.base);
  FaultInjectionSession session(model);  // snapshot buffers reused every iteration
  TrainHooks hooks;
  hooks.before_forward = [&session, fault_model, stream,
                          injector = config.injector](int, std::int64_t) {
    // Same seed every iteration: the device's defect map is FIXED — this is
    // what makes the method device-specific.
    Rng rng(stream);
    session.inject(fault_model, injector, rng);
  };
  hooks.after_backward = [&session](int, std::int64_t) {
    if (!session.injected()) return;
    // The map is known, so the retraining pins stuck weights: no gradient
    // flows into positions the device cannot realize.
    session.zero_hit_gradients();
    session.restore();
  };
  trainer.set_hooks(hooks);
  return trainer.run();
}

double evaluate_on_device(Module& model, const Dataset& data, double p_sa,
                          double sa0_fraction, const InjectorConfig& injector,
                          std::uint64_t defect_master_seed, std::uint64_t device_index) {
  const StuckAtFaultModel fault_model(p_sa, sa0_fraction);
  Rng rng(device_stream(defect_master_seed, device_index));
  FaultInjectionSession session(model);  // restores the clean weights on return
  session.inject(fault_model, injector, rng);
  return evaluate_accuracy(model, data);
}

}  // namespace ftpim
