//! One transformer encoder layer over a subset of slices: the packed,
//! width-fused kernel every encoder forward pass runs through.
//!
//! A [`PackedLayer`] holds the `m` selected slices of one layer
//! column-packed, so the Q/K/V projections of all heads are one wide
//! matmul and the FFN1 projections of all heads another. A [`LayerScratch`]
//! holds the activations; it is separate from the weights so that one packed
//! layer can be shared read-only by many concurrent forward passes (the
//! importance profiler shares its 2-bit floor across probe threads).

use sti_tensor::activation::gelu;
use sti_tensor::norm::layernorm_inplace;
use sti_tensor::softmax::softmax_slice;
use sti_tensor::{ops, Matrix};

use crate::config::ModelConfig;
use crate::weights::{LayerResident, ShardWeights};

/// The selected slices of one encoder layer, packed for a width-fused
/// forward pass.
///
/// # Layout
///
/// With `m` packed slots (slot `h` holds slice `slice_idxs[h]`),
/// `hd = d/M` and `f = d_ff/M`:
///
/// - `wqkv` is `d × 3·hd·m`; columns `[3·hd·h, 3·hd·(h+1))` are slot `h`'s
///   `[q | k | v]` projections side by side;
/// - `w1` is `d × f·m`; columns `[f·h, f·(h+1))` are slot `h`'s FFN1 block;
/// - `wo` is `m·hd × d`: slot `h`'s output projection is row block
///   `[hd·h, hd·(h+1))`;
/// - `w2` is `m·f × d`: slot `h`'s FFN2 block is row block `[f·h, f·(h+1))`;
/// - `b1` holds the `f`-long segments of the resident FFN1 bias that belong
///   to the packed slices, in slot order.
///
/// # Bit-identity contract
///
/// [`PackedLayer::forward`] returns exactly — bit for bit — what composing
/// per-head [`attention`](crate::attention::attention) and
/// [`ffn`](crate::ffn::ffn) with the bias, residual and layer-norm steps
/// returns for the same slices in the same order:
///
/// - every projection output element starts at `0.0` and sums its products
///   over the inner index in ascending order, skipping terms whose left
///   operand is exactly zero, as [`ops::matmul`] does. Packing heads side by
///   side only widens the output row; no element's sum changes order;
/// - attention scores use [`ops::dot`], the `1/√hd` scale, then
///   [`softmax_slice`]; FFN1 adds the bias segment, then applies [`gelu`];
/// - each slot's output-projection (and FFN2) partial is computed on its own
///   from `0.0` and then added to the layer accumulator in slot order, never
///   summed into it directly;
/// - the accumulator is then scaled by `M/m`, biased, added to the residual
///   and layer-normalised, in that order.
#[derive(Debug, Clone)]
pub struct PackedLayer {
    hidden: usize,
    head_dim: usize,
    ffn_per_shard: usize,
    heads: usize,
    width: usize,
    wqkv: Matrix,
    w1: Matrix,
    wo: Matrix,
    w2: Matrix,
    b1: Vec<f32>,
}

/// Activation buffers for [`PackedLayer::forward`], reused across layers
/// and calls; they are resized only when the sequence length or the width
/// changes.
#[derive(Debug, Default)]
pub struct LayerScratch {
    qkv: Matrix,
    hidden: Matrix,
    acc: Matrix,
    mid: Matrix,
    scores: Vec<f32>,
    head: Vec<f32>,
    part: Vec<f32>,
}

fn reshape(m: &mut Matrix, rows: usize, cols: usize) {
    if m.shape() != (rows, cols) {
        *m = Matrix::zeros(rows, cols);
    }
}

impl PackedLayer {
    /// An empty (width 0) packed layer for models of shape `cfg`; call
    /// [`PackedLayer::reset`] before filling slots.
    pub fn new(cfg: &ModelConfig) -> Self {
        Self {
            hidden: cfg.hidden,
            head_dim: cfg.head_dim(),
            ffn_per_shard: cfg.ffn_per_shard(),
            heads: cfg.heads,
            width: 0,
            wqkv: Matrix::zeros(cfg.hidden, 0),
            w1: Matrix::zeros(cfg.hidden, 0),
            wo: Matrix::zeros(0, cfg.hidden),
            w2: Matrix::zeros(0, cfg.hidden),
            b1: Vec::new(),
        }
    }

    /// Packs `shards` (the weights of slices `slice_idxs`, in matching
    /// order) in one go.
    ///
    /// # Panics
    ///
    /// As [`PackedLayer::reset`], or if `shards` and `slice_idxs` differ in
    /// length.
    pub fn pack(
        cfg: &ModelConfig,
        shards: &[&ShardWeights],
        slice_idxs: &[usize],
        bias_ffn1: &[f32],
    ) -> Self {
        assert_eq!(shards.len(), slice_idxs.len(), "shard/slice index length mismatch");
        let mut packed = Self::new(cfg);
        packed.reset(slice_idxs, bias_ffn1);
        for (slot, shard) in shards.iter().enumerate() {
            packed.set_slot(slot, shard);
        }
        packed
    }

    /// Prepares `slice_idxs.len()` slots for the given slices and copies
    /// their FFN1 bias segments out of the layer's resident `bias_ffn1`.
    /// Weight buffers are reallocated only when the width changes; slot
    /// weights must then be (re)filled.
    ///
    /// # Panics
    ///
    /// Panics if `slice_idxs` is empty, a slice is out of range, or
    /// `bias_ffn1` is not `d_ff` long.
    pub fn reset(&mut self, slice_idxs: &[usize], bias_ffn1: &[f32]) {
        assert!(!slice_idxs.is_empty(), "a packed layer needs at least one slice");
        let (d, hd, f) = (self.hidden, self.head_dim, self.ffn_per_shard);
        assert_eq!(bias_ffn1.len(), f * self.heads, "FFN1 bias has wrong length");
        let m = slice_idxs.len();
        if m != self.width {
            self.width = m;
            self.wqkv = Matrix::zeros(d, 3 * hd * m);
            self.w1 = Matrix::zeros(d, f * m);
            self.wo = Matrix::zeros(hd * m, d);
            self.w2 = Matrix::zeros(f * m, d);
        }
        self.b1.clear();
        for &s in slice_idxs {
            assert!(s < self.heads, "slice {s} out of range");
            self.b1.extend_from_slice(&bias_ffn1[s * f..(s + 1) * f]);
        }
    }

    /// Fills slot `slot` from a shard's weights.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= width` or the shard's shapes disagree with the
    /// configuration.
    pub fn set_slot(&mut self, slot: usize, shard: &ShardWeights) {
        self.fill(
            slot,
            [&shard.q, &shard.k, &shard.v, &shard.o, &shard.ffn1, &shard.ffn2]
                .map(Matrix::as_slice),
        );
    }

    /// Fills slot `slot` from a flat weight group in
    /// [`ShardWeights::flatten`] order — what dequantizing a shard blob
    /// produces, so the executor packs straight from its decode buffer.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= width` or `flat` is not one shard long.
    pub fn set_slot_flat(&mut self, slot: usize, flat: &[f32]) {
        let (d, hd, f) = (self.hidden, self.head_dim, self.ffn_per_shard);
        assert_eq!(flat.len(), 4 * d * hd + 2 * d * f, "flat weight group has wrong length");
        let (q, rest) = flat.split_at(d * hd);
        let (k, rest) = rest.split_at(d * hd);
        let (v, rest) = rest.split_at(d * hd);
        let (o, rest) = rest.split_at(hd * d);
        let (ffn1, ffn2) = rest.split_at(d * f);
        self.fill(slot, [q, k, v, o, ffn1, ffn2]);
    }

    fn fill(&mut self, slot: usize, [q, k, v, o, ffn1, ffn2]: [&[f32]; 6]) {
        assert!(slot < self.width, "slot {slot} out of range for width {}", self.width);
        let (d, hd, f) = (self.hidden, self.head_dim, self.ffn_per_shard);
        assert!(
            [q, k, v].iter().all(|p| p.len() == d * hd)
                && o.len() == hd * d
                && ffn1.len() == d * f
                && ffn2.len() == f * d,
            "shard shapes disagree with the packed layer's configuration"
        );
        let at = 3 * hd * slot;
        for (r, row) in self.wqkv.as_mut_slice().chunks_exact_mut(3 * hd * self.width).enumerate() {
            row[at..at + hd].copy_from_slice(&q[r * hd..(r + 1) * hd]);
            row[at + hd..at + 2 * hd].copy_from_slice(&k[r * hd..(r + 1) * hd]);
            row[at + 2 * hd..at + 3 * hd].copy_from_slice(&v[r * hd..(r + 1) * hd]);
        }
        for (r, row) in self.w1.as_mut_slice().chunks_exact_mut(f * self.width).enumerate() {
            row[f * slot..f * (slot + 1)].copy_from_slice(&ffn1[r * f..(r + 1) * f]);
        }
        self.wo.as_mut_slice()[slot * hd * d..(slot + 1) * hd * d].copy_from_slice(o);
        self.w2.as_mut_slice()[slot * f * d..(slot + 1) * f * d].copy_from_slice(ffn2);
    }

    /// Runs the layer (post-norm, BERT-style) in place:
    /// `x ← LN(x + Attn(x))`, then `x ← LN(x + FFN(x))`, with `resident`
    /// the layer's resident norms and biases. See the type docs for the
    /// bit-identity contract.
    ///
    /// # Panics
    ///
    /// Panics if the layer is empty or `x` is not `d` wide.
    pub fn forward(&self, x: &mut Matrix, resident: &LayerResident, scratch: &mut LayerScratch) {
        let (d, hd, f, m) = (self.hidden, self.head_dim, self.ffn_per_shard, self.width);
        assert!(m > 0, "a packed layer needs at least one slice");
        assert_eq!(x.cols(), d, "input width must equal hidden size");
        let l = x.rows();
        let LayerScratch { qkv, hidden, acc, mid, scores, head, part } = scratch;
        reshape(qkv, l, 3 * hd * m);
        reshape(hidden, l, f * m);
        reshape(acc, l, d);
        reshape(mid, l, d);
        scores.resize(l, 0.0);
        head.resize(hd, 0.0);
        part.resize(d, 0.0);
        let width_scale = self.heads as f32 / m as f32;

        // Attention: Q/K/V of every head in one wide pass.
        ops::matmul_into(x, &self.wqkv, qkv);
        let scale = 1.0 / (hd as f32).sqrt();
        let qkv_w = 3 * hd * m;
        let qkv_rows = qkv.as_slice();
        acc.as_mut_slice().fill(0.0);
        for (i, acc_row) in acc.as_mut_slice().chunks_exact_mut(d).enumerate() {
            for (h, wo) in self.wo.as_slice().chunks_exact(hd * d).enumerate() {
                let at = 3 * hd * h;
                let q = &qkv_rows[i * qkv_w + at..i * qkv_w + at + hd];
                for (score, kv) in scores.iter_mut().zip(qkv_rows.chunks_exact(qkv_w)) {
                    *score = ops::dot(q, &kv[at + hd..at + 2 * hd]) * scale;
                }
                softmax_slice(scores);
                head.fill(0.0);
                for (&s, kv) in scores.iter().zip(qkv_rows.chunks_exact(qkv_w)) {
                    if s == 0.0 {
                        continue;
                    }
                    for (o, &v) in head.iter_mut().zip(&kv[at + 2 * hd..at + 3 * hd]) {
                        *o += s * v;
                    }
                }
                project_add(head, wo, part, acc_row);
            }
        }
        ops::scale_inplace(acc, width_scale);
        ops::add_bias(acc, &resident.bias_attn);
        ops::add_inplace(acc, x);
        layernorm_inplace(acc, &resident.ln_attn, 1e-6);
        std::mem::swap(acc, mid);

        // FFN: the FFN1 block of every head in one wide pass.
        ops::matmul_into(mid, &self.w1, hidden);
        for row in hidden.as_mut_slice().chunks_exact_mut(f * m) {
            for (h, b) in row.iter_mut().zip(&self.b1) {
                *h = gelu(*h + b);
            }
        }
        acc.as_mut_slice().fill(0.0);
        for (acts, acc_row) in
            hidden.as_slice().chunks_exact(f * m).zip(acc.as_mut_slice().chunks_exact_mut(d))
        {
            for (act, w2) in acts.chunks_exact(f).zip(self.w2.as_slice().chunks_exact(f * d)) {
                project_add(act, w2, part, acc_row);
            }
        }
        ops::scale_inplace(acc, width_scale);
        ops::add_bias(acc, &resident.bias_ffn2);
        ops::add_inplace(acc, mid);
        layernorm_inplace(acc, &resident.ln_ffn, 1e-6);
        std::mem::swap(acc, x);
    }
}

/// `acc += a · w` for one row `a` and a `a.len() × acc.len()` block `w`,
/// with the product formed in `part` first so it rounds exactly as a
/// separate [`ops::matmul`] followed by [`ops::add_inplace`] does.
fn project_add(a: &[f32], w: &[f32], part: &mut [f32], acc: &mut [f32]) {
    part.fill(0.0);
    for (&aik, w_row) in a.iter().zip(w.chunks_exact(part.len())) {
        if aik == 0.0 {
            continue;
        }
        for (p, &wv) in part.iter_mut().zip(w_row) {
            *p += aik * wv;
        }
    }
    for (o, &p) in acc.iter_mut().zip(part.iter()) {
        *o += p;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::attention::attention;
    use crate::ffn::ffn;
    use crate::synthetic::{synthetic_layer, GainPattern};
    use crate::weights::LayerWeights;
    use proptest::prelude::*;
    use sti_tensor::Rng;

    /// The per-head encoder composition the packed kernel replaced, kept as
    /// the reference the kernel must match bit for bit.
    pub(crate) fn oracle_layer(
        x: &Matrix,
        shards: &[&ShardWeights],
        slice_idxs: &[usize],
        resident: &LayerResident,
        cfg: &ModelConfig,
    ) -> Matrix {
        let mut attn_out = attention(x, shards, cfg);
        ops::add_bias(&mut attn_out, &resident.bias_attn);
        ops::add_inplace(&mut attn_out, x);
        layernorm_inplace(&mut attn_out, &resident.ln_attn, 1e-6);

        let mut ffn_out = ffn(&attn_out, shards, slice_idxs, &resident.bias_ffn1, cfg);
        ops::add_bias(&mut ffn_out, &resident.bias_ffn2);
        ops::add_inplace(&mut ffn_out, &attn_out);
        layernorm_inplace(&mut ffn_out, &resident.ln_ffn, 1e-6);
        ffn_out
    }

    fn packed_forward(
        x: &Matrix,
        shards: &[&ShardWeights],
        slice_idxs: &[usize],
        resident: &LayerResident,
        cfg: &ModelConfig,
    ) -> Matrix {
        let packed = PackedLayer::pack(cfg, shards, slice_idxs, &resident.bias_ffn1);
        let mut out = x.clone();
        packed.forward(&mut out, resident, &mut LayerScratch::default());
        out
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// A layer whose slices carry exact-zero V columns and FFN1 neurons (with
    /// zero bias), so head outputs and GELU activations hit exact zeros and
    /// the projection zero-skips run; and an input with exact-zero entries
    /// for the wide Q/K/V pass.
    fn setup_with_zeros(cfg: &ModelConfig, seed: u64) -> (LayerWeights, Matrix) {
        let mut rng = Rng::new(seed);
        let mut layer = synthetic_layer(cfg, &mut rng, 0, GainPattern::Uniform);
        let f = cfg.ffn_per_shard();
        for (s, shard) in layer.shards.iter_mut().enumerate() {
            if s % 2 == 0 {
                for r in 0..cfg.hidden {
                    shard.v[(r, 0)] = 0.0;
                    shard.ffn1[(r, 1)] = 0.0;
                }
                layer.resident.bias_ffn1[s * f + 1] = 0.0;
            }
        }
        let mut x = Matrix::zeros(cfg.seq_len, cfg.hidden);
        rng.fill_gaussian(x.as_mut_slice(), 0.0, 1.0);
        for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
            if i % 7 == 3 {
                *v = 0.0;
            }
        }
        (layer, x)
    }

    /// Checks the packed kernel against the oracle on a random `m`-slice
    /// subset of `layer`, in random order.
    fn check_subset(cfg: &ModelConfig, layer: &LayerWeights, x: &Matrix, m: usize, seed: u64) {
        let mut order: Vec<usize> = (0..cfg.heads).collect();
        Rng::new(seed).shuffle(&mut order);
        let idxs = &order[..m];
        let refs: Vec<&ShardWeights> = idxs.iter().map(|&s| &layer.shards[s]).collect();
        let want = oracle_layer(x, &refs, idxs, &layer.resident, cfg);
        let got = packed_forward(x, &refs, idxs, &layer.resident, cfg);
        assert_eq!(bits(&got), bits(&want), "width {m}, slices {idxs:?}");
    }

    #[test]
    fn zero_skips_are_exercised() {
        let cfg = ModelConfig::tiny();
        let (layer, x) = setup_with_zeros(&cfg, 1);
        let shard = &layer.shards[0];
        assert!(x.as_slice().contains(&0.0), "the Q/K/V pass must see exact-zero inputs");
        // Any input gives an all-zero V column (so head outputs hit exact
        // zeros before the O projection) and an all-zero GELU neuron (before
        // FFN2).
        let v = ops::matmul(&x, &shard.v);
        assert!((0..v.rows()).all(|r| v[(r, 0)] == 0.0));
        let h = ops::matmul(&x, &shard.ffn1);
        assert!((0..h.rows()).all(|r| gelu(h[(r, 1)] + layer.resident.bias_ffn1[1]) == 0.0));
    }

    proptest! {
        #[test]
        fn packed_matches_oracle_bitwise_on_tiny(seed in any::<u64>(), m in 1usize..=4) {
            let cfg = ModelConfig::tiny();
            let (layer, x) = setup_with_zeros(&cfg, seed);
            check_subset(&cfg, &layer, &x, m, seed ^ 0x5eed);
        }
    }

    #[test]
    fn packed_matches_oracle_bitwise_on_scaled_bert_at_every_width() {
        let cfg = ModelConfig::scaled_bert();
        for seed in [3u64, 17] {
            let (layer, x) = setup_with_zeros(&cfg, seed);
            for m in 1..=cfg.heads {
                check_subset(&cfg, &layer, &x, m, seed * 100 + m as u64);
            }
        }
    }

    #[test]
    fn refilled_layer_matches_a_fresh_pack() {
        // Reusing one packed layer and one scratch across widths and layers
        // (the working-buffer pattern) leaves no state behind.
        let cfg = ModelConfig::tiny();
        let (a, x) = setup_with_zeros(&cfg, 5);
        let (b, _) = setup_with_zeros(&cfg, 6);
        let mut packed = PackedLayer::new(&cfg);
        let mut scratch = LayerScratch::default();
        for (layer, idxs) in [(&a, vec![3, 1]), (&b, vec![0, 1, 2, 3]), (&a, vec![2, 0])] {
            packed.reset(&idxs, &layer.resident.bias_ffn1);
            for (slot, &s) in idxs.iter().enumerate() {
                packed.set_slot_flat(slot, &layer.shards[s].flatten());
            }
            let mut got = x.clone();
            packed.forward(&mut got, &layer.resident, &mut scratch);
            let refs: Vec<&ShardWeights> = idxs.iter().map(|&s| &layer.shards[s]).collect();
            let want = oracle_layer(&x, &refs, &idxs, &layer.resident, &cfg);
            assert_eq!(bits(&got), bits(&want));
        }
    }

    #[test]
    fn output_is_normalized() {
        let cfg = ModelConfig::tiny();
        let (layer, x) = setup_with_zeros(&cfg, 11);
        let refs: Vec<&ShardWeights> = layer.shards.iter().collect();
        let idxs: Vec<usize> = (0..cfg.heads).collect();
        let out = packed_forward(&x, &refs, &idxs, &layer.resident, &cfg);
        assert_eq!(out.shape(), x.shape());
        // Post-layernorm rows have bounded magnitude regardless of input.
        for r in 0..out.rows() {
            let max = out.row(r).iter().fold(0.0f32, |a, &b| a.max(b.abs()));
            assert!(max < 20.0, "row {r} exploded: {max}");
        }
    }

    #[test]
    fn partial_width_runs_and_differs() {
        let cfg = ModelConfig::tiny();
        let (layer, x) = setup_with_zeros(&cfg, 11);
        let all: Vec<&ShardWeights> = layer.shards.iter().collect();
        let idxs: Vec<usize> = (0..cfg.heads).collect();
        let full = packed_forward(&x, &all, &idxs, &layer.resident, &cfg);
        let partial = packed_forward(&x, &all[..2], &idxs[..2], &layer.resident, &cfg);
        assert!(partial.max_abs_diff(&full) > 1e-4);
    }

    #[test]
    #[should_panic(expected = "at least one slice")]
    fn rejects_empty_slice_set() {
        let cfg = ModelConfig::tiny();
        PackedLayer::new(&cfg).reset(&[], &vec![0.0; cfg.ffn]);
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn rejects_bad_flat_groups() {
        let cfg = ModelConfig::tiny();
        let mut packed = PackedLayer::new(&cfg);
        packed.reset(&[0], &vec![0.0; cfg.ffn]);
        packed.set_slot_flat(0, &[0.0; 3]);
    }
}
