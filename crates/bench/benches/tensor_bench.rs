//! Criterion micro-benchmarks for the tensor kernels: dense matmul at the
//! shapes the transformer actually uses, and a whole-layer forward pass of
//! the packed encoder kernel at several widths.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sti_tensor::{ops, Matrix, Rng};
use sti_transformer::synthetic::{synthetic_layer, GainPattern};
use sti_transformer::{LayerScratch, ModelConfig, PackedLayer, ShardWeights};

fn random_matrix(rng: &mut Rng, r: usize, c: usize) -> Matrix {
    let mut m = Matrix::zeros(r, c);
    rng.fill_gaussian(m.as_mut_slice(), 0.0, 1.0);
    m
}

fn bench_matmul(c: &mut Criterion) {
    let mut rng = Rng::new(1);
    let cfg = ModelConfig::scaled_bert();
    let mut group = c.benchmark_group("matmul");
    // (l x d) * (d x d_ff): the FFN up-projection, the largest matmul.
    let a = random_matrix(&mut rng, cfg.seq_len, cfg.hidden);
    let b = random_matrix(&mut rng, cfg.hidden, cfg.ffn);
    let flops = 2 * cfg.seq_len * cfg.hidden * cfg.ffn;
    group.throughput(Throughput::Elements(flops as u64));
    group.bench_function(
        BenchmarkId::new("ffn_up", format!("{}x{}x{}", cfg.seq_len, cfg.hidden, cfg.ffn)),
        |bch| bch.iter(|| ops::matmul(&a, &b)),
    );
    group.finish();
}

fn bench_layer_forward(c: &mut Criterion) {
    let cfg = ModelConfig::scaled_bert();
    let mut rng = Rng::new(2);
    let layer = synthetic_layer(&cfg, &mut rng, 0, GainPattern::Uniform);
    let x = random_matrix(&mut rng, cfg.seq_len, cfg.hidden);
    let mut group = c.benchmark_group("layer_forward");
    let mut scratch = LayerScratch::default();
    for m in [1usize, 2, 6, 12] {
        let refs: Vec<&ShardWeights> = layer.shards[..m].iter().collect();
        let idxs: Vec<usize> = (0..m).collect();
        let packed = PackedLayer::pack(&cfg, &refs, &idxs, &layer.resident.bias_ffn1);
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |bch, _| {
            bch.iter(|| {
                let mut y = x.clone();
                packed.forward(&mut y, &layer.resident, &mut scratch);
                y
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_matmul, bench_layer_forward
}
criterion_main!(benches);
