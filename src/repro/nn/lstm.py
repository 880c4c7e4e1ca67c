"""Vectorized LSTM layer with full backpropagation through time.

Implements the cell of paper Fig. 4 exactly:

    i_t = sigmoid(W_i J_t + U_i h_{t-1} + b_i)
    f_t = sigmoid(W_f J_t + U_f h_{t-1} + b_f)
    o_t = sigmoid(W_o J_t + U_o h_{t-1} + b_o)
    g_t = tanh   (W_g J_t + U_g h_{t-1} + b_g)
    C_t = f_t ⊙ C_{t-1} + i_t ⊙ g_t
    h_t = o_t ⊙ tanh(C_t)

The four per-gate weight matrices are packed into single ``W`` (input),
``U`` (recurrent) and ``b`` (bias) arrays with gate layout ``[i, f, o, g]``
so each timestep costs two GEMMs instead of eight — the dominant cost, so
this is the vectorization that matters (HPC guide: optimize the
bottleneck, nothing else).  The batch dimension is fully vectorized; the
time dimension is a Python loop, which is irreducible for a recurrence.
"""

from __future__ import annotations

import numpy as np

from repro.nn.activations import dsigmoid_from_y, dtanh_from_y, sigmoid
from repro.nn.initializers import glorot_uniform, lstm_bias, orthogonal

__all__ = ["LSTMLayer", "LSTMCache"]


class _LSTMScratch:
    """Preallocated buffers for :meth:`LSTMLayer.forward_inference`.

    One instance per layer, sized for a (B, T) batch shape and reused
    across batches — inference allocates nothing per call once warm.
    ``zsig``/``zg`` alias the (B, 4H) pre-activation block ``z``;
    the activated sigmoid gates live in the contiguous buffer ``a``
    (views ``ai/af/ao``) and the candidate in ``g``.
    """

    __slots__ = ("B", "T", "xw", "xw_tm", "z", "zsig", "zg", "a", "ai", "af",
                 "ao", "g", "h_prev", "c_prev", "c", "tmp", "out")

    def __init__(self, B: int, T: int, H: int):
        self.B, self.T = B, T
        self.xw = np.empty((B * T, 4 * H))
        # Time-major staging slab for the multichannel projection;
        # allocated on first D > 1 call only (the univariate path
        # computes straight into ``xw`` in time-major order).
        self.xw_tm: np.ndarray | None = None
        self.z = np.empty((B, 4 * H))
        # Gate layout is [i, f, o, g]: the three sigmoid gates form one
        # (B, 3H) block.  ``a`` is a dense copy of that block — ufunc
        # passes over a contiguous buffer are 2-3x faster than over a
        # strided slice of ``z``, and the activation is 4 more passes.
        self.zsig = self.z[:, : 3 * H]
        self.zg = self.z[:, 3 * H :]
        self.a = np.empty((B, 3 * H))
        self.ai = self.a[:, :H]
        self.af = self.a[:, H : 2 * H]
        self.ao = self.a[:, 2 * H : 3 * H]
        self.g = np.empty((B, H))
        self.h_prev = np.empty((B, H))
        self.c_prev = np.empty((B, H))
        self.c = np.empty((B, H))
        self.tmp = np.empty((B, H))
        self.out = np.empty((B, T, H))


def _sigmoid_inplace(z: np.ndarray) -> None:
    """In-place logistic sigmoid, bitwise-equal to ``activations.sigmoid``.

    Same op sequence (clip, negate, exp, 1 + ·, divide) on the same
    operands — only the destination differs, so results are identical
    to the out-of-place version to the last bit.
    """
    z.clip(-60.0, 60.0, out=z)
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    np.divide(1.0, z, out=z)


class LSTMCache:
    """Forward-pass intermediates needed by :meth:`LSTMLayer.backward`.

    Stored as (T, B, ·) stacks; allocated once per forward call.
    """

    __slots__ = ("x", "gates", "c", "tanh_c", "h", "h0", "c0")

    def __init__(self, x, gates, c, tanh_c, h, h0, c0):
        self.x = x          # (B, T, D) layer input
        self.gates = gates  # (T, B, 4H) post-activation gate values [i,f,o,g]
        self.c = c          # (T, B, H) cell states C_t
        self.tanh_c = tanh_c  # (T, B, H) tanh(C_t)
        self.h = h          # (T, B, H) hidden states h_t
        self.h0 = h0        # (B, H) initial hidden state
        self.c0 = c0        # (B, H) initial cell state


class LSTMLayer:
    """One LSTM layer mapping (B, T, D) inputs to (B, T, H) hidden states.

    Parameters
    ----------
    input_size:
        Dimensionality D of each timestep's input (1 for raw JARs).
    hidden_size:
        Number of units — the size ``s`` of the cell-memory vector ``C``,
        one of the paper's four tuned hyperparameters.
    rng:
        Source of randomness for initialization; pass a seeded generator
        for reproducible predictors.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        if input_size <= 0 or hidden_size <= 0:
            raise ValueError("input_size and hidden_size must be positive")
        self.input_size = int(input_size)
        self.hidden_size = int(hidden_size)
        H = self.hidden_size
        # Input kernel: Glorot over each gate block; recurrent kernel:
        # orthogonal per gate (what Keras' LSTM default does).
        self.W = glorot_uniform(rng, input_size, H, (input_size, 4 * H))
        self.U = np.concatenate(
            [orthogonal(rng, H, H) for _ in range(4)], axis=1
        )
        self.b = lstm_bias(H)
        self._scratch: _LSTMScratch | None = None

    # Scratch buffers are a per-process cache, not state: drop them when
    # the layer is pickled (e.g. shipped to a trial-evaluation worker).
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_scratch"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._scratch = state.get("_scratch")

    # ------------------------------------------------------------------
    # parameter plumbing
    # ------------------------------------------------------------------
    @property
    def params(self) -> list[np.ndarray]:
        """Parameter arrays in a stable order (W, U, b)."""
        return [self.W, self.U, self.b]

    def zero_grads(self) -> list[np.ndarray]:
        """Freshly-zeroed gradient buffers matching :attr:`params`."""
        return [np.zeros_like(p) for p in self.params]

    def n_params(self) -> int:
        """Total scalar parameter count."""
        return sum(p.size for p in self.params)

    # ------------------------------------------------------------------
    # forward
    # ------------------------------------------------------------------
    def forward(
        self,
        x: np.ndarray,
        h0: np.ndarray | None = None,
        c0: np.ndarray | None = None,
    ) -> tuple[np.ndarray, LSTMCache]:
        """Run the recurrence over a (B, T, D) batch.

        Returns the full hidden-state sequence (B, T, H) plus the cache
        for BPTT.  Initial states default to zeros (the stateless mode
        used for windowed JAR prediction).
        """
        if x.ndim != 3:
            raise ValueError(f"expected (batch, time, features) input, got {x.shape}")
        B, T, D = x.shape
        if D != self.input_size:
            raise ValueError(f"input feature dim {D} != layer input_size {self.input_size}")
        if T == 0:
            raise ValueError("sequence length must be positive")
        H = self.hidden_size
        h_prev = np.zeros((B, H)) if h0 is None else np.array(h0, dtype=np.float64)
        c_prev = np.zeros((B, H)) if c0 is None else np.array(c0, dtype=np.float64)

        # Hoist the input projection out of the loop: one big GEMM over
        # all timesteps instead of T small ones.
        xw = x.reshape(B * T, D) @ self.W  # (B*T, 4H)
        xw = xw.reshape(B, T, 4 * H) + self.b

        gates = np.empty((T, B, 4 * H))
        cs = np.empty((T, B, H))
        tanh_cs = np.empty((T, B, H))
        hs = np.empty((T, B, H))
        h0_saved, c0_saved = h_prev.copy(), c_prev.copy()

        for t in range(T):
            z = xw[:, t, :] + h_prev @ self.U  # (B, 4H)
            i = sigmoid(z[:, :H])
            f = sigmoid(z[:, H : 2 * H])
            o = sigmoid(z[:, 2 * H : 3 * H])
            g = np.tanh(z[:, 3 * H :])
            c = f * c_prev + i * g
            tc = np.tanh(c)
            h = o * tc
            gates[t, :, :H] = i
            gates[t, :, H : 2 * H] = f
            gates[t, :, 2 * H : 3 * H] = o
            gates[t, :, 3 * H :] = g
            cs[t] = c
            tanh_cs[t] = tc
            hs[t] = h
            h_prev, c_prev = h, c

        cache = LSTMCache(x, gates, cs, tanh_cs, hs, h0_saved, c0_saved)
        return np.ascontiguousarray(hs.transpose(1, 0, 2)), cache

    # ------------------------------------------------------------------
    # inference fast path
    # ------------------------------------------------------------------
    def forward_inference(
        self,
        x: np.ndarray,
        h0: np.ndarray | None = None,
        c0: np.ndarray | None = None,
        return_sequences: bool = True,
    ) -> np.ndarray:
        """Forward pass without the BPTT cache — the deployed hot path.

        Bitwise-identical to :meth:`forward`'s hidden sequence, but:

        * no ``gates/c/tanh_c/h`` (T, B, ·) stacks are allocated;
        * per-layer scratch buffers are reused across batches of the
          same (B, T) shape, so a warm predictor allocates nothing;
        * the four gate activations run in place on slices of one
          (B, 4H) pre-activation block;
        * hidden states are written directly in (B, T, H) layout, so
          there is no final ``transpose`` + ``ascontiguousarray`` copy.

        With ``return_sequences=False`` only the final hidden state
        ``h_T`` of shape (B, H) is returned and the per-step output
        writes are skipped entirely — the right mode for the last layer
        of a stack, whose head reads ``h_T`` alone.

        The returned array is a view of the layer's scratch: valid until
        the next ``forward_inference`` call on this layer.  Not
        thread-safe — callers that share a model across threads must
        hold their own lock (the training path is unaffected).
        """
        if x.ndim != 3:
            raise ValueError(f"expected (batch, time, features) input, got {x.shape}")
        B, T, D = x.shape
        if D != self.input_size:
            raise ValueError(f"input feature dim {D} != layer input_size {self.input_size}")
        if T == 0:
            raise ValueError("sequence length must be positive")
        H = self.hidden_size

        s = self._scratch
        if s is None or s.B != B or s.T != T:
            s = self._scratch = _LSTMScratch(B, T, H)

        if D == 1:
            # Univariate hot case: x @ W with one input feature is an
            # outer product — each element is the single correctly
            # rounded product x[b,t,0] * W[0,j], so one bulk broadcast
            # multiply is bitwise-equal to the GEMM (which BLAS handles
            # poorly at K=1).  Computed in (T, B, 4H) layout so every
            # ``xw[t]`` step slice is contiguous.
            xw = s.xw.reshape(T, B, 4 * H)
            np.multiply(x.transpose(1, 0, 2), self.W, out=xw)
            xw += self.b
        else:
            # Multichannel case: the same hoisted GEMM as the cached
            # path — one (B*T, D) @ (D, 4H) product, so every element
            # is computed by the identical dot-product reduction —
            # then a transpose-copy into a (T, B, 4H) time-major slab
            # so the step slices below are contiguous, exactly like
            # the univariate branch.  Copies never change bits, so
            # parity with :meth:`forward` holds for every D.
            np.matmul(np.ascontiguousarray(x).reshape(B * T, D), self.W, out=s.xw)
            if s.xw_tm is None:
                s.xw_tm = np.empty((T, B, 4 * H))
            xw = s.xw_tm
            np.copyto(xw, s.xw.reshape(B, T, 4 * H).transpose(1, 0, 2))
            xw += self.b

        if h0 is None:
            s.h_prev.fill(0.0)
        else:
            s.h_prev[...] = h0
        if c0 is None:
            s.c_prev.fill(0.0)
        else:
            s.c_prev[...] = c0

        # Hot loop: ufuncs hoisted to locals and ``out`` passed
        # positionally — at these array sizes (a few KB per step) the
        # numpy dispatch overhead is a measurable share of each step.
        mul, mm, add = np.multiply, np.matmul, np.add
        neg, exp, div, tanh = np.negative, np.exp, np.divide, np.tanh
        z, a, g, tmp = s.z, s.a, s.g, s.tmp
        zsig, zg, ai, af, ao = s.zsig, s.zg, s.ai, s.af, s.ao
        h_prev, out = s.h_prev, s.out
        c, c_prev = s.c, s.c_prev
        U = self.U
        # Hoist per-step slice construction out of the loop: iterating a
        # (T, B, 4H) array yields the contiguous step views directly
        # (both projection branches land in time-major layout).
        xts = list(xw)
        for t in range(T):
            # z_t = (x_t W + b) + h_{t-1} U; IEEE addition commutes
            # bitwise, so either accumulation direction matches the
            # cached path exactly.
            mm(h_prev, U, z)
            add(z, xts[t], z)
            # Fused sigmoid over [i, f, o]: the clip pass reads the
            # strided (B, 3H) slice of z and lands in the contiguous
            # buffer ``a``; the remaining four passes run contiguous
            # (2-3x faster than strided — same values either way).
            # The method runs np.clip's own ufunc, minus the two
            # Python wrapper layers np.clip adds on every call.
            zsig.clip(-60.0, 60.0, out=a)
            neg(a, a)
            exp(a, a)
            add(a, 1.0, a)
            div(1.0, a, a)
            tanh(zg, g)
            # C_t = f ⊙ C_{t-1} + i ⊙ g, then h_t = o ⊙ tanh(C_t),
            # written straight into the (B, T, H) output slab.
            mul(af, c_prev, c)
            mul(ai, g, tmp)
            add(c, tmp, c)
            tanh(c, tmp)
            mul(ao, tmp, h_prev)
            if return_sequences:
                out[:, t] = h_prev
            c, c_prev = c_prev, c  # swap roles instead of copying C_t
        return out if return_sequences else h_prev

    # ------------------------------------------------------------------
    # backward
    # ------------------------------------------------------------------
    def backward(
        self, d_h_seq: np.ndarray, cache: LSTMCache
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Full BPTT given d(loss)/d(hidden sequence) of shape (B, T, H).

        Returns ``(dx, grads)`` where ``dx`` is d(loss)/d(input) with the
        input's shape and ``grads`` matches :attr:`params` order.
        """
        x, gates, cs, tanh_cs = cache.x, cache.gates, cache.c, cache.tanh_c
        B, T, D = x.shape
        H = self.hidden_size
        if d_h_seq.shape != (B, T, H):
            raise ValueError(
                f"d_h_seq shape {d_h_seq.shape} != expected {(B, T, H)}"
            )

        dW = np.zeros_like(self.W)
        dU = np.zeros_like(self.U)
        db = np.zeros_like(self.b)
        dz_all = np.empty((T, B, 4 * H))  # pre-activation grads, for batched GEMMs

        dh_next = np.zeros((B, H))
        dc_next = np.zeros((B, H))
        for t in range(T - 1, -1, -1):
            i = gates[t, :, :H]
            f = gates[t, :, H : 2 * H]
            o = gates[t, :, 2 * H : 3 * H]
            g = gates[t, :, 3 * H :]
            c_prev = cs[t - 1] if t > 0 else cache.c0
            tc = tanh_cs[t]

            dh = d_h_seq[:, t, :] + dh_next
            do = dh * tc
            dc = dh * o * dtanh_from_y(tc) + dc_next
            df = dc * c_prev
            di = dc * g
            dg = dc * i
            dc_next = dc * f

            dz = dz_all[t]
            dz[:, :H] = di * dsigmoid_from_y(i)
            dz[:, H : 2 * H] = df * dsigmoid_from_y(f)
            dz[:, 2 * H : 3 * H] = do * dsigmoid_from_y(o)
            dz[:, 3 * H :] = dg * dtanh_from_y(g)

            h_prev = cache.h[t - 1] if t > 0 else cache.h0
            dU += h_prev.T @ dz
            dh_next = dz @ self.U.T

        # Batched input-side GEMMs (time loop only carries the recurrence).
        dz_flat = dz_all.transpose(1, 0, 2).reshape(B * T, 4 * H)
        dW += x.reshape(B * T, D).T @ dz_flat
        db += dz_flat.sum(axis=0)
        dx = (dz_flat @ self.W.T).reshape(B, T, D)
        return dx, [dW, dU, db]
