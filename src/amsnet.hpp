// Umbrella header: the full public API of amsnet.
//
// Most users only need this plus the README's quickstart. Individual
// headers remain includable for finer-grained builds.
#pragma once

// Parallel runtime (work-stealing pool, deterministic RNG streams)
#include "runtime/parallel_for.hpp"
#include "runtime/rng_stream.hpp"
#include "runtime/thread_pool.hpp"

// Tensors and utilities
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "tensor/rng.hpp"
#include "tensor/serialize.hpp"
#include "tensor/shape.hpp"
#include "tensor/tensor.hpp"

// Neural network framework
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/gradcheck.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/module.hpp"
#include "nn/pooling.hpp"
#include "nn/sequential.hpp"
#include "nn/sgd.hpp"

// DoReFa quantization and fixed point
#include "quant/dorefa.hpp"
#include "quant/fixed_point.hpp"
#include "quant/quant_modules.hpp"

// AMS error modeling (the paper's core)
#include "ams/delta_sigma.hpp"
#include "ams/error_injector.hpp"
#include "ams/error_model.hpp"
#include "ams/partitioned.hpp"
#include "ams/reference_scaling.hpp"
#include "ams/vmac_cell.hpp"
#include "ams/vmac_config.hpp"
#include "ams/vmac_conv.hpp"

// Energy modeling
#include "energy/adc_energy.hpp"
#include "energy/adc_survey.hpp"
#include "energy/energy_accuracy.hpp"
#include "energy/vmac_energy.hpp"

// Data, models, training, experiments
#include "core/experiment.hpp"
#include "core/network_energy.hpp"
#include "core/report.hpp"
#include "data/data_loader.hpp"
#include "data/synthetic_imagenet.hpp"
#include "models/blocks.hpp"
#include "models/conv_unit.hpp"
#include "models/resnet.hpp"
#include "train/checkpoint_cache.hpp"
#include "train/evaluate.hpp"
#include "train/trainer.hpp"

// Serving (dynamic batching inference server)
#include "serve/server.hpp"
