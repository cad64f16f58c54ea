"""Numerical validation of the conv→GEMM lowering and SegNet/deconv."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigError
from repro.dnn.chaidnn import ChaiOp, compile_model
from repro.dnn.layers import ConvLayer, DeconvLayer
from repro.dnn.models import build_model, segnet_toy
from repro.dnn.reference import conv2d_direct, conv2d_gemm, im2col
from repro.dnn.tracegen import DnnTraceGenerator
from repro.dnn.accelerator import EDGE


class TestIm2colLowering:
    def _random(self, c, h, w, out_c, k, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((c, h, w))
        weights = rng.standard_normal((out_c, c, k, k))
        return x, weights

    def test_gemm_equals_direct_stride1(self):
        x, w = self._random(3, 8, 8, 4, 3)
        assert np.allclose(conv2d_gemm(x, w, 1, 1), conv2d_direct(x, w, 1, 1))

    def test_gemm_equals_direct_strided(self):
        x, w = self._random(2, 11, 9, 5, 3, seed=1)
        assert np.allclose(conv2d_gemm(x, w, 2, 1), conv2d_direct(x, w, 2, 1))

    def test_gemm_equals_direct_1x1(self):
        x, w = self._random(8, 6, 6, 16, 1, seed=2)
        assert np.allclose(conv2d_gemm(x, w), conv2d_direct(x, w))

    @given(st.integers(min_value=1, max_value=3),
           st.integers(min_value=5, max_value=9),
           st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=2),
           st.integers(min_value=0, max_value=1))
    @settings(max_examples=15, deadline=None)
    def test_gemm_equals_direct_property(self, c, h, out_c, k, stride, padding):
        if (h + 2 * padding - k) < 0:
            return
        x, w = self._random(c, h, h, out_c, k, seed=c * h + out_c)
        assert np.allclose(
            conv2d_gemm(x, w, stride, padding), conv2d_direct(x, w, stride, padding)
        )

    def test_im2col_shape_matches_gemmshape(self):
        """The timing model's GemmShape IS the im2col matrix geometry."""
        layer = ConvLayer(name="c", inputs=("input",), in_channels=3,
                          out_channels=8, kernel=3, stride=2, padding=1,
                          in_h=16, in_w=16)
        (gemm,) = layer.gemms()
        x = np.zeros((3, 16, 16))
        columns = im2col(x, 3, 2, 1)
        assert columns.shape == (gemm.m, gemm.k)
        assert gemm.n == 8

    def test_im2col_validation(self):
        with pytest.raises(ConfigError):
            im2col(np.zeros((4, 4)), 3, 1, 0)
        with pytest.raises(ConfigError):
            conv2d_direct(np.zeros((3, 4, 4)), np.zeros((2, 5, 3, 3)))


class TestDeconvLayer:
    def test_upsample_geometry(self):
        layer = DeconvLayer(name="d", inputs=("x",), in_channels=8,
                            out_channels=4, kernel=2, stride=2, in_h=14, in_w=14)
        assert (layer.out_h, layer.out_w) == (28, 28)

    def test_fcn_style_geometry(self):
        layer = DeconvLayer(name="d", inputs=("x",), in_channels=8,
                            out_channels=4, kernel=4, stride=2, padding=1,
                            in_h=14, in_w=14)
        assert (layer.out_h, layer.out_w) == (28, 28)

    def test_gemm_macs_match_conv_transpose(self):
        layer = DeconvLayer(name="d", inputs=("x",), in_channels=8,
                            out_channels=4, kernel=2, stride=2, in_h=14, in_w=14)
        (gemm,) = layer.gemms()
        # Every input pixel contributes k·k·out_c MACs per input channel.
        assert gemm.macs == 14 * 14 * 8 * 4 * 2 * 2

    def test_invalid_geometry(self):
        with pytest.raises(ConfigError):
            DeconvLayer(name="d", inputs=("x",), in_channels=1, out_channels=1,
                        kernel=1, stride=1, padding=3, in_h=2, in_w=2)


class TestSegNet:
    def test_builds_and_registers(self):
        model = build_model("SegNet")
        assert model.name == "SegNet"
        assert any(isinstance(l, DeconvLayer) for l in model.layers)

    def test_decoder_restores_resolution(self):
        model = segnet_toy()
        last_deconv = [l for l in model.layers if isinstance(l, DeconvLayer)][-1]
        assert last_deconv.out_h == 224

    def test_compiles_to_chaidnn_with_deconvolution(self):
        instructions = compile_model(segnet_toy())
        ops = {i.op for i in instructions}
        assert ChaiOp.DECONVOLUTION in ops
        assert ChaiOp.CONVOLUTION in ops

    def test_trace_generates_and_vns_hold(self):
        trace = DnnTraceGenerator(segnet_toy(), EDGE).inference()
        assert len(trace.trace.to_phases()) == len(segnet_toy().layers)
        write_vns = [
            a.vn for p in trace.trace.to_phases() for a in p.accesses if a.is_write
        ]
        assert all(x < y for x, y in zip(write_vns, write_vns[1:]))


class TestMarkdownRendering:
    def test_to_markdown(self):
        from repro.experiments.base import ExperimentResult

        r = ExperimentResult("x", "Title", ["a", "b"])
        r.add_row(a="v", b=1.5)
        r.summary["avg"] = 1.5
        r.paper["avg"] = 1.6
        md = r.to_markdown()
        assert "### Title" in md
        assert "| a | b |" in md
        assert "**avg**: 1.500 (paper: 1.600)" in md
