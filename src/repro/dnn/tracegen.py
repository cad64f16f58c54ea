"""DNN trace generation: model + machine → phases of compute and DRAM traffic.

This plays the role SCALE-Sim plays in the paper's toolflow (Fig. 11a):
walk the layer graph in schedule order, decide tiling, and append one
phase per layer — its block transfers, then its compute cycles — to a
:class:`~repro.core.access.TraceBuilder`.  Every access carries the
data class and the version number the on-chip kernel would supply (from
:class:`~repro.core.vngen.DnnVnState`), so the same trace drives the
timing schemes, the VN-correctness tests and the functional engine.

Inference (§IV-C): features of each layer get a fresh VN_F; multi-pass
(tiled) outputs read back partial sums with the current VN and write with
the incremented one — exactly Algorithm 7(b).

Training (§IV-C): forward is inference with features kept; backward walks
the graph in reverse, reading saved features and incoming gradients and
writing gradients with VN_G.  The optimizer's weight update is *not*
emitted, matching the paper's SCALE-Sim setup ("the weight update during
training is not emulated").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigError
from repro.core.access import AccessKind, DataClass, Trace, TraceBuilder
from repro.core.vngen import DnnVnState
from repro.dnn.accelerator import DnnAcceleratorConfig
from repro.dnn.layers import (
    ConcatLayer,
    DnnModel,
    EltwiseAddLayer,
    EmbeddingLayer,
    Layer,
    PoolLayer,
)
from repro.dnn.tiling import plan_gemm
from repro.mem.layout import AddressSpace


@dataclass
class DnnTrace:
    """The generated execution trace plus its bookkeeping side-products."""

    trace: Trace
    vn_state: DnnVnState
    address_space: AddressSpace


class DnnTraceGenerator:
    """Generates inference / training traces for one model on one machine."""

    def __init__(self, model: DnnModel, config: DnnAcceleratorConfig,
                 batch: int = 1) -> None:
        if batch < 1:
            raise ConfigError(f"batch must be >= 1, got {batch}")
        self.model = model
        self.config = config
        self.batch = batch
        self._space = AddressSpace(size=config.protected_bytes)
        self._tensor_bytes: dict[str, int] = {"input": model.input_bytes * batch}
        self._space.alloc("feat:input", max(64, model.input_bytes * batch), kind="feature")
        for layer in model.layers:
            self._tensor_bytes[layer.name] = layer.ofmap_bytes * batch
            if isinstance(layer, EmbeddingLayer):
                self._space.alloc(f"emb:{layer.name}", layer.total_table_bytes,
                                  kind="embedding")
            if layer.weight_bytes:
                self._space.alloc(f"w:{layer.name}", layer.weight_bytes, kind="weight")
            self._space.alloc(f"feat:{layer.name}", max(64, layer.ofmap_bytes * batch),
                              kind="feature")

    # ------------------------------------------------------------------
    @property
    def address_space(self) -> AddressSpace:
        return self._space

    def _region(self, name: str):
        return self._space.region(name)

    def _feature_read(self, builder: TraceBuilder, tensor: str, vn: int) -> None:
        region = self._region(f"feat:{tensor}")
        builder.access(region.base, max(64, self._tensor_bytes[tensor]),
                       AccessKind.READ, DataClass.FEATURE, vn=vn)

    # ------------------------------------------------------------------
    def inference(self) -> DnnTrace:
        """Forward-pass trace for one batch."""
        builder, vn_state = TraceBuilder(), DnnVnState()
        self._forward(builder, vn_state)
        return DnnTrace(builder.build(), vn_state, self._space)

    def training_step(self) -> DnnTrace:
        """One training iteration: forward (features saved) + backward."""
        builder, vn_state = TraceBuilder(), DnnVnState()
        self._forward(builder, vn_state)
        # Loss gradient seeds the backward pass at the last layer's output.
        vn_state.write_gradients(self.model.layers[-1].name)
        for layer in reversed(self.model.layers):
            self._backward_phase(builder, layer, vn_state)
        return DnnTrace(builder.build(), vn_state, self._space)

    def _forward(self, builder: TraceBuilder, vn_state: DnnVnState) -> None:
        vn_state.ingest_features("input")
        for layer in self.model.layers:
            self._forward_phase(builder, layer, vn_state)

    # ------------------------------------------------------------------
    def _forward_phase(self, builder: TraceBuilder, layer: Layer,
                       vn_state: DnnVnState) -> None:
        config = self.config

        if isinstance(layer, EmbeddingLayer):
            return self._embedding_phase(builder, layer, vn_state)

        # -- input features --------------------------------------------------
        for tensor in layer.inputs:
            self._feature_read(builder, tensor, vn_state.read_features(tensor))

        gemms = self._batched_gemms(layer)
        decision = None
        if gemms and layer.weight_bytes:
            decision = plan_gemm(
                gemms[0], config.array, config.ifmap_sram, config.filter_sram,
                config.ofmap_sram, layer.dtype_bytes,
            )
            # Re-streamed inputs (tiling) read the same tensors again with
            # the same VN — reads never consume VNs (§III-C).
            extra_passes = decision.ifmap_passes - 1
            for _ in range(extra_passes):
                for tensor in layer.inputs:
                    self._feature_read(builder, tensor,
                                       vn_state.read_features(tensor))

        # -- weights ---------------------------------------------------------
        if layer.weight_bytes:
            region = self._region(f"w:{layer.name}")
            weight_passes = decision.weight_passes if decision else 1
            for _ in range(weight_passes):
                builder.access(region.base, layer.weight_bytes, AccessKind.READ,
                               DataClass.WEIGHT, vn=vn_state.read_weights())

        # -- output features (possibly multi-pass, Fig. 7) -------------------
        out_region = self._region(f"feat:{layer.name}")
        out_bytes = max(64, self._tensor_bytes[layer.name])
        ofmap_passes = decision.ofmap_passes if decision else 1
        for pass_index in range(ofmap_passes):
            if pass_index > 0:
                builder.access(out_region.base, out_bytes, AccessKind.READ,
                               DataClass.FEATURE,
                               vn=vn_state.read_features(layer.name))
            builder.access(out_region.base, out_bytes, AccessKind.WRITE,
                           DataClass.FEATURE,
                           vn=vn_state.write_features(layer.name))

        builder.end_phase(f"fwd:{layer.name}", self._forward_cycles(layer, gemms))

    def _embedding_phase(self, builder: TraceBuilder, layer: EmbeddingLayer,
                         vn_state: DnnVnState) -> None:
        """DLRM gather: scattered row reads + a streaming output write."""
        region = self._region(f"emb:{layer.name}")
        # The embedding layer carries its own batch (DLRM models embed it),
        # so the generator batch is not applied again here.
        gathered = layer.total_lookups * layer.row_bytes
        builder.access(region.base, gathered, AccessKind.READ,
                       DataClass.EMBEDDING, sequential=False,
                       vn=vn_state.read_weights(), burst_bytes=layer.row_bytes,
                       spread_bytes=layer.total_table_bytes)
        vn_state.write_features(layer.name)  # rows land in on-chip buffers
        if self._tensor_bytes[layer.name]:
            out_region = self._region(f"feat:{layer.name}")
            builder.access(out_region.base, self._tensor_bytes[layer.name],
                           AccessKind.WRITE, DataClass.FEATURE,
                           vn=vn_state.read_features(layer.name))
        builder.end_phase(f"fwd:{layer.name}",
                          self.config.array.movement_cycles(gathered))

    def _backward_phase(self, builder: TraceBuilder, layer: Layer,
                        vn_state: DnnVnState) -> None:
        """Backward pass of one layer."""
        if isinstance(layer, EmbeddingLayer):
            # Embedding backward is a scatter of sparse gradient rows.
            out_region = self._region(f"feat:{layer.name}")
            grad_bytes = max(64, self._tensor_bytes[layer.name])
            builder.access(out_region.base, grad_bytes, AccessKind.READ,
                           DataClass.GRADIENT,
                           vn=vn_state.read_gradients(layer.name))
            builder.end_phase(f"bwd:{layer.name}",
                              self.config.array.movement_cycles(grad_bytes))
            return

        # Incoming gradient g_y (written when this layer's consumers ran,
        # or the loss seed for the last layer).
        out_region = self._region(f"feat:{layer.name}")
        out_bytes = max(64, self._tensor_bytes[layer.name])
        builder.access(out_region.base, out_bytes, AccessKind.READ,
                       DataClass.GRADIENT, vn=vn_state.read_gradients(layer.name))

        gemms = self._batched_gemms(layer)
        if gemms and layer.weight_bytes:
            # g_x needs W, g_w needs x: read both operands.
            w_region = self._region(f"w:{layer.name}")
            builder.access(w_region.base, layer.weight_bytes, AccessKind.READ,
                           DataClass.WEIGHT, vn=vn_state.read_weights())
        if gemms:
            for tensor in layer.inputs:
                self._feature_read(builder, tensor,
                                   vn_state.read_features(tensor))
            # Gradient of the weights, streamed out once (§VI-A: the
            # optimizer's in-place update is not emulated).
            if layer.weight_bytes:
                w_region = self._region(f"w:{layer.name}")
                builder.access(w_region.base, layer.weight_bytes,
                               AccessKind.WRITE, DataClass.GRADIENT,
                               vn=vn_state.write_gradients(f"{layer.name}.w"))

        # Gradient flowing to each producer tensor.
        for tensor in layer.inputs:
            if tensor == "input":
                continue  # no gradient w.r.t. external input
            region = self._region(f"feat:{tensor}")
            builder.access(region.base, max(64, self._tensor_bytes[tensor]),
                           AccessKind.WRITE, DataClass.GRADIENT,
                           vn=vn_state.write_gradients(tensor))

        # Backward GEMM cycles: the batch multiplies total MAC work; the dW
        # GEMM grows along K rather than M, so we scale cycles uniformly
        # instead of reshaping each GEMM (a documented approximation).
        backward_gemms = layer.backward_gemms
        cycles = self.batch * sum(
            self.config.array.gemm_cycles(g) for g in backward_gemms
        )
        if not backward_gemms:
            cycles = self.config.array.movement_cycles(builder.open_bytes())
        builder.end_phase(f"bwd:{layer.name}", cycles)

    # ------------------------------------------------------------------
    def _batched_gemms(self, layer: Layer):
        """Forward GEMMs with the batch dimension folded into M."""
        gemms = layer.gemms()
        if self.batch == 1 or not gemms:
            return gemms
        return [type(g)(m=g.m * self.batch, k=g.k, n=g.n) for g in gemms]

    def _forward_cycles(self, layer: Layer, gemms) -> float:
        if gemms:
            return sum(self.config.array.gemm_cycles(g) for g in gemms)
        if isinstance(layer, (PoolLayer, EltwiseAddLayer, ConcatLayer)):
            return self.config.array.movement_cycles(
                (layer.ifmap_bytes + layer.ofmap_bytes) * self.batch
            )
        return 0.0
