"""Property test of the executor on random networks.  A random valid layer
sequence ending in a projection, run unfolded and folded at batch 1 and 2,
gives the concatenating composition's logits bit for bit, and each layer's
output has the shape ``analyze`` gives it."""

from unittest import mock

import numpy as np
import pytest

from edanet import netdef, runtime
from edanet.analyzer import analyze
from edanet.netdef import LayerSpec, NetspecError, NetworkSpec
from edanet.runtime import fold_batch_norm, forward, init_weights
from edanet.tensorops import ShapeError, Tensor
from test_runtime import concat_composition, randomize_bn

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

INPUT = (3, 32, 64)
SMALL, ONE_OR_TWO = st.integers(1, 6), st.integers(1, 2)


def layers(name: str, c: int):
    """One layer of any kind but the projection, reading ``c`` channels;
    the caller drops those its network rejects."""
    return st.one_of(
        st.builds(LayerSpec, st.just("conv"), st.just(name), in_ch=st.just(c), out_ch=SMALL,
                  kh=st.integers(1, 3), kw=st.integers(1, 3), stride=ONE_OR_TWO,
                  dilation=ONE_OR_TWO, pad_h=st.integers(0, 2), pad_w=st.integers(0, 2),
                  bn=st.booleans(), act=st.booleans()),
        st.builds(LayerSpec, st.just("deconv"), st.just(name), in_ch=st.just(c),
                  out_ch=SMALL, k=st.integers(1, 3), stride=ONE_OR_TWO, bn=st.booleans(),
                  act=st.booleans()),
        st.builds(LayerSpec, st.sampled_from(["eda", "eda_na"]), st.just(name),
                  in_ch=st.just(c), growth=SMALL, dilation=st.integers(1, 3)),
        st.builds(LayerSpec, st.just("erf"), st.just(name), width=st.just(c),
                  dilation=st.integers(1, 3)),
        st.builds(LayerSpec, st.just("downsample"), st.just(name), in_ch=st.just(c),
                  out_ch=st.integers(1, 12)),
        st.builds(LayerSpec, st.just("maxpool"), st.just(name), k=st.integers(1, 3),
                  stride=ONE_OR_TWO, pad=st.integers(0, 2)),
        st.builds(LayerSpec, st.just("avgpool"), st.just(name), k=ONE_OR_TWO, stride=ONE_OR_TWO),
        st.builds(LayerSpec, st.just("aspp"), st.just(name), in_ch=st.just(c),
                  branch_ch=SMALL),
        st.builds(LayerSpec, st.just("bilinear"), st.just(name), factor=ONE_OR_TWO),
    )


@hypothesis.settings(max_examples=80, derandomize=True, deadline=None, database=None)
@hypothesis.given(data=st.data())
def test_forward_matches_concatenating_composition(data):
    classes = data.draw(st.integers(1, 5), label="classes")
    chosen, c = [], INPUT[0]
    for i in range(data.draw(st.integers(1, 8), label="depth")):
        layer = data.draw(layers(f"l{i}", c), label=f"l{i}")
        try:
            net = NetworkSpec("fuzz", classes, chosen + [layer])
            out = analyze(net, INPUT).layers[-1].out_shape
        except (NetspecError, ShapeError):  # a block rule, or a shape the input breaks
            continue
        if out[0] <= 40 and out[1] * out[2] <= INPUT[1] * INPUT[2]:  # keep it cheap
            chosen.append(layer)
            c = out[0]
    net = NetworkSpec("fuzz", classes,
                      chosen + [LayerSpec("projection", "proj", in_ch=c, classes=classes)])
    store = init_weights(net, seed=data.draw(st.integers(0, 2**32), label="seed"))
    randomize_bn(store, np.random.default_rng(data.draw(st.integers(0, 2**32), label="bn")))
    folded = fold_batch_norm(net, store)
    inner = runtime._eval
    for n, s in ((net, store), (folded.net, folded.weights)):
        tops = {id(netdef.expand_layer(layer)) for layer in n.layers}
        for batch in (1, 2):
            rng = np.random.default_rng(batch)
            x = Tensor(rng.uniform(0, 1, (batch, *INPUT)).astype(np.float32))
            shapes = []

            def spy(node, *args, **kwargs):
                y = inner(node, *args, **kwargs)
                if id(node) in tops:
                    shapes.append(y.shape)
                return y

            with mock.patch.object(runtime, "_eval", spy):
                got = forward(n, s, x)
            assert shapes == [(batch, *l.out_shape) for l in analyze(n, INPUT).layers]
            want = concat_composition(n, s, x)
            assert np.array_equal(got.data.view(np.uint32), want.data.view(np.uint32))
