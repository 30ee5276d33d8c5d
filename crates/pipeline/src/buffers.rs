//! The two memory buffers STI allocates (paper §3.1).

use std::collections::HashMap;

use sti_quant::QuantizedBlob;
use sti_tensor::Matrix;
use sti_transformer::{LayerResident, LayerScratch, ModelConfig, PackedLayer, ShardId};

use crate::error::PipelineError;

/// The preload buffer: a small, capacity-bounded cache of *compressed*
/// shards that persists across executions for as long as the app lives.
///
/// Shards from bottom layers are the valuable ones (they are needed first,
/// §5.5), so when the buffer shrinks it evicts from the **top** layers
/// downward.
#[derive(Debug, Default)]
pub struct PreloadBuffer {
    capacity: u64,
    used: u64,
    blobs: HashMap<ShardId, QuantizedBlob>,
}

impl PreloadBuffer {
    /// Creates an empty buffer with the given byte capacity.
    pub fn new(capacity: u64) -> Self {
        Self { capacity, used: 0, blobs: HashMap::new() }
    }

    /// Byte capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently held.
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// Number of shards held.
    pub fn len(&self) -> usize {
        self.blobs.len()
    }

    /// Whether the buffer holds nothing.
    pub fn is_empty(&self) -> bool {
        self.blobs.is_empty()
    }

    /// Whether a shard is resident.
    pub fn contains(&self, id: ShardId) -> bool {
        self.blobs.contains_key(&id)
    }

    /// Borrows a resident shard's blob.
    pub fn get(&self, id: ShardId) -> Option<&QuantizedBlob> {
        self.blobs.get(&id)
    }

    /// Admits a shard.
    ///
    /// Replacing an already-resident shard first releases its bytes.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::PreloadOverflow`] if the blob does not fit;
    /// the buffer is unchanged in that case.
    pub fn insert(&mut self, id: ShardId, blob: QuantizedBlob) -> Result<(), PipelineError> {
        let bytes = blob.byte_size() as u64;
        let freed = self.blobs.get(&id).map_or(0, |b| b.byte_size() as u64);
        let available = self.capacity - self.used + freed;
        if bytes > available {
            return Err(PipelineError::PreloadOverflow { needed: bytes, available });
        }
        if let Some(old) = self.blobs.insert(id, blob) {
            self.used -= old.byte_size() as u64;
        }
        self.used += bytes;
        Ok(())
    }

    /// Removes a shard, returning its blob.
    pub fn remove(&mut self, id: ShardId) -> Option<QuantizedBlob> {
        let blob = self.blobs.remove(&id)?;
        self.used -= blob.byte_size() as u64;
        Some(blob)
    }

    /// Drops everything.
    pub fn clear(&mut self) {
        self.blobs.clear();
        self.used = 0;
    }

    /// Changes the capacity. When shrinking, evicts shards from the top
    /// layers downward (within a layer, highest slice first) until the
    /// contents fit (§5.5: bottom layers are needed early, preserve them).
    pub fn resize(&mut self, capacity: u64) {
        self.capacity = capacity;
        if self.used <= capacity {
            return;
        }
        let mut ids: Vec<ShardId> = self.blobs.keys().copied().collect();
        // Top layers (and top slices) first.
        ids.sort_by(|a, b| b.cmp(a));
        for id in ids {
            if self.used <= capacity {
                break;
            }
            self.remove(id);
        }
    }

    /// Ids currently resident, in (layer, slice) order.
    pub fn resident_ids(&self) -> Vec<ShardId> {
        let mut ids: Vec<ShardId> = self.blobs.keys().copied().collect();
        ids.sort();
        ids
    }
}

/// The working buffer: one layer's worth of decompressed FP32 shard weights,
/// reused across layers so its size does not grow with the model (§3.1).
///
/// [`WorkingBuffer::assemble`] dequantizes each of a layer's blobs into one
/// shard-sized decode buffer and copies it straight into the column-packed
/// layout of a [`PackedLayer`]; [`WorkingBuffer::forward`] then runs the
/// layer with the width-fused kernel (bit-identical to the per-head
/// composition, see [`PackedLayer`]). The decode buffer, the packed weights
/// and the activation scratch are all reused from layer to layer — and,
/// when a host keeps one buffer per compute thread, from engagement to
/// engagement ([`WorkingBuffer::reset_peak`] keeps the peak per engagement).
#[derive(Debug)]
pub struct WorkingBuffer {
    cfg: ModelConfig,
    decoded: Vec<f32>,
    layer: PackedLayer,
    scratch: LayerScratch,
    peak_shards: usize,
}

impl WorkingBuffer {
    /// Creates a working buffer for models of shape `cfg`.
    pub fn new(cfg: ModelConfig) -> Self {
        let decoded = vec![0.0; cfg.shard_param_count()];
        let layer = PackedLayer::new(&cfg);
        Self { cfg, decoded, layer, scratch: LayerScratch::default(), peak_shards: 0 }
    }

    /// Checks that `blobs` can be assembled for a layer of `slices` slices
    /// of a model shaped `cfg`: one blob per slice, each holding exactly one
    /// shard's weights. Executors check every layer when an engagement
    /// settles, so the forward pass ([`WorkingBuffer::assemble`] onwards)
    /// never meets a malformed layer.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::PlanMismatch`] if a blob's length disagrees
    /// with the configured shard size or the blob and slice counts differ.
    pub fn check(
        cfg: &ModelConfig,
        blobs: &[&QuantizedBlob],
        slices: usize,
    ) -> Result<(), PipelineError> {
        if blobs.len() != slices {
            return Err(PipelineError::PlanMismatch(format!(
                "{} blobs for {slices} slices",
                blobs.len()
            )));
        }
        if let Some(blob) = blobs.iter().find(|b| b.len() != cfg.shard_param_count()) {
            return Err(PipelineError::PlanMismatch(format!(
                "blob holds {} weights, shard expects {}",
                blob.len(),
                cfg.shard_param_count()
            )));
        }
        Ok(())
    }

    /// Decompresses a layer's blobs — the weights of slices `slice_idxs`,
    /// in matching order — into the packed layer; `resident` is that
    /// layer's resident parameters (the FFN1 bias segments are packed too).
    /// The blobs must pass [`WorkingBuffer::check`].
    pub fn assemble(
        &mut self,
        blobs: &[&QuantizedBlob],
        slice_idxs: &[usize],
        resident: &LayerResident,
    ) {
        debug_assert!(Self::check(&self.cfg, blobs, slice_idxs.len()).is_ok());
        self.layer.reset(slice_idxs, &resident.bias_ffn1);
        for (slot, blob) in blobs.iter().enumerate() {
            blob.dequantize_into(&mut self.decoded);
            self.layer.set_slot_flat(slot, &self.decoded);
        }
        self.peak_shards = self.peak_shards.max(blobs.len());
    }

    /// Runs the last assembled layer over `x` in place; `resident` must be
    /// the same layer's resident parameters as passed to
    /// [`WorkingBuffer::assemble`].
    pub fn forward(&mut self, x: &mut Matrix, resident: &LayerResident) {
        self.layer.forward(x, resident, &mut self.scratch);
    }

    /// Peak bytes of decompressed weights held for any single layer since
    /// the buffer was created or last [`WorkingBuffer::reset_peak`].
    pub fn peak_bytes(&self) -> usize {
        self.peak_shards * self.cfg.shard_fp32_bytes()
    }

    /// Starts a new peak window: executors call this at the start of every
    /// engagement, so a buffer reused across engagements still reports each
    /// engagement's own peak.
    pub fn reset_peak(&mut self) {
        self.peak_shards = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sti_quant::{Bitwidth, QuantConfig};
    use sti_transformer::synthetic::synthetic_shard;
    use sti_transformer::Model;

    fn blob(cfg: &ModelConfig, seed: u64, bw: Bitwidth) -> QuantizedBlob {
        let shard = synthetic_shard(cfg, seed, 1.0);
        QuantizedBlob::quantize(&shard.flatten(), bw, &QuantConfig::default())
    }

    #[test]
    fn insert_tracks_bytes_and_rejects_overflow() {
        let cfg = ModelConfig::tiny();
        let b = blob(&cfg, 1, Bitwidth::B6);
        let bytes = b.byte_size() as u64;
        let mut buf = PreloadBuffer::new(bytes + 10);
        buf.insert(ShardId::new(0, 0), b.clone()).unwrap();
        assert_eq!(buf.used_bytes(), bytes);
        let err = buf.insert(ShardId::new(0, 1), b).unwrap_err();
        assert!(matches!(err, PipelineError::PreloadOverflow { .. }));
        assert_eq!(buf.len(), 1, "failed insert must not change the buffer");
    }

    #[test]
    fn replacing_a_shard_releases_its_bytes() {
        let cfg = ModelConfig::tiny();
        let big = blob(&cfg, 1, Bitwidth::B6);
        let small = blob(&cfg, 1, Bitwidth::B2);
        let mut buf = PreloadBuffer::new(big.byte_size() as u64);
        buf.insert(ShardId::new(0, 0), big).unwrap();
        buf.insert(ShardId::new(0, 0), small.clone()).unwrap();
        assert_eq!(buf.used_bytes(), small.byte_size() as u64);
    }

    #[test]
    fn resize_evicts_top_layers_first() {
        let cfg = ModelConfig::tiny();
        let b = blob(&cfg, 2, Bitwidth::B2);
        let each = b.byte_size() as u64;
        let mut buf = PreloadBuffer::new(each * 4);
        for (l, s) in [(0u16, 0u16), (0, 1), (1, 0), (1, 1)] {
            buf.insert(ShardId::new(l, s), b.clone()).unwrap();
        }
        buf.resize(each * 2);
        let resident = buf.resident_ids();
        assert_eq!(resident, vec![ShardId::new(0, 0), ShardId::new(0, 1)]);
        assert!(buf.used_bytes() <= buf.capacity());
    }

    #[test]
    fn clear_resets_accounting() {
        let cfg = ModelConfig::tiny();
        let b = blob(&cfg, 3, Bitwidth::B2);
        let mut buf = PreloadBuffer::new(1 << 20);
        buf.insert(ShardId::new(0, 0), b).unwrap();
        buf.clear();
        assert!(buf.is_empty());
        assert_eq!(buf.used_bytes(), 0);
    }

    #[test]
    fn working_buffer_round_trips_full_fidelity() {
        let cfg = ModelConfig::tiny();
        let model = Model::synthetic(7, cfg.clone());
        let id = ShardId::new(0, 1);
        let flat = model.shard(id).flatten();
        let b = QuantizedBlob::quantize(&flat, Bitwidth::Full, &QuantConfig::default());
        let resident = &model.layers()[0].resident;
        let mut wb = WorkingBuffer::new(cfg.clone());
        wb.assemble(&[&b], &[1], resident);
        let x = model.embedding().embed(&[4, 2]);
        let mut got = x.clone();
        wb.forward(&mut got, resident);
        let mut want = x;
        PackedLayer::pack(&cfg, &[model.shard(id)], &[1], &resident.bias_ffn1).forward(
            &mut want,
            resident,
            &mut sti_transformer::LayerScratch::default(),
        );
        assert_eq!(got, want);
        assert_eq!(wb.peak_bytes(), cfg.shard_fp32_bytes());
    }

    #[test]
    fn check_rejects_wrong_size_blobs() {
        let cfg = ModelConfig::tiny();
        let other = ModelConfig { hidden: 16, ffn: 32, ..ModelConfig::tiny() };
        let b = blob(&other, 1, Bitwidth::B2);
        let err = WorkingBuffer::check(&cfg, &[&b], 1).unwrap_err();
        assert!(matches!(err, PipelineError::PlanMismatch(_)));
        assert!(WorkingBuffer::check(&cfg, &[&blob(&cfg, 1, Bitwidth::B2)], 1).is_ok());
    }

    #[test]
    fn check_rejects_slice_count_mismatch() {
        let cfg = ModelConfig::tiny();
        let b = blob(&cfg, 1, Bitwidth::B2);
        let err = WorkingBuffer::check(&cfg, &[&b], 2).unwrap_err();
        assert!(matches!(err, PipelineError::PlanMismatch(_)));
    }

    #[test]
    fn reset_peak_starts_a_new_window_without_changing_results() {
        let cfg = ModelConfig::tiny();
        let model = Model::synthetic(5, cfg.clone());
        let resident = &model.layers()[0].resident;
        let blobs: Vec<QuantizedBlob> =
            (0..cfg.heads as u16).map(|s| blob(&cfg, 10 + s as u64, Bitwidth::B4)).collect();
        let refs: Vec<&QuantizedBlob> = blobs.iter().collect();
        let all: Vec<usize> = (0..cfg.heads).collect();
        let run = |wb: &mut WorkingBuffer, width: usize| {
            wb.reset_peak();
            wb.assemble(&refs[..width], &all[..width], resident);
            let mut x = model.embedding().embed(&[3, 1, 4]);
            wb.forward(&mut x, resident);
            (x, wb.peak_bytes())
        };
        // One buffer across a wide then a narrow engagement reports the
        // narrow one's own peak and the same activations as a fresh buffer.
        let mut reused = WorkingBuffer::new(cfg.clone());
        let (_, wide_peak) = run(&mut reused, cfg.heads);
        assert_eq!(wide_peak, cfg.heads * cfg.shard_fp32_bytes());
        let (x_reused, narrow_peak) = run(&mut reused, 1);
        assert_eq!(narrow_peak, cfg.shard_fp32_bytes(), "the wide engagement must not leak");
        let (x_fresh, fresh_peak) = run(&mut WorkingBuffer::new(cfg.clone()), 1);
        assert_eq!(narrow_peak, fresh_peak);
        assert_eq!(x_reused, x_fresh);
    }

    #[test]
    fn working_buffer_does_not_grow_with_layers() {
        let cfg = ModelConfig::tiny();
        let mut wb = WorkingBuffer::new(cfg.clone());
        let b = blob(&cfg, 4, Bitwidth::B4);
        let resident = LayerResident::identity(&cfg);
        let slices: Vec<usize> = (0..cfg.heads).collect();
        for _ in 0..10 {
            let blobs: Vec<&QuantizedBlob> = (0..cfg.heads).map(|_| &b).collect();
            wb.assemble(&blobs, &slices, &resident);
        }
        assert_eq!(wb.peak_bytes(), cfg.heads * cfg.shard_fp32_bytes());
    }
}
