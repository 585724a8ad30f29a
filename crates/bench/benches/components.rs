//! Criterion microbenchmarks of the substrates: AES, MAC, Morphable
//! encode/decode, the functional secure memory, cache arrays, the DRAM
//! scheduler and the NoC model.
//!
//! Crypto entries come in pairs: the dispatched kernel (AES-NI and
//! PCLMULQDQ where the CPU has them) and the portable path other hosts
//! run.
//!
//! These quantify the *simulator's* own performance (events/second),
//! complementing the figure benches that quantify the *simulated* system.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use emcc::cache::{CacheConfig, SetAssocCache};
use emcc::counters::format::{decode_morphable, encode_morphable};
use emcc::counters::{CounterDesign, MorphFormat};
use emcc::crypto::mac::{gf64_mul, gf64_mul_portable};
use emcc::crypto::{Aes128, BlockCipherKeys, DataBlock, MacKeys};
use emcc::dram::{Dram, DramConfig, DramRequest, RequestClass};
use emcc::noc::{Mesh, NocLatency};
use emcc::secmem::FunctionalSecureMemory;
use emcc::sim::{EventQueue, LineAddr, Rng64, Time};

fn bench_aes(c: &mut Criterion) {
    let aes = Aes128::new([7u8; 16]);
    // The two paths must agree before their timings mean anything.
    assert_eq!(
        aes.encrypt([42u8; 16]),
        aes.encrypt_reference([42u8; 16]),
        "T-table and reference AES disagree"
    );
    c.bench_function("crypto/aes128_block", |b| {
        b.iter(|| aes.encrypt(black_box([42u8; 16])))
    });
    c.bench_function("crypto/aes128_block_reference", |b| {
        b.iter(|| aes.encrypt_reference(black_box([42u8; 16])))
    });

    // Batched vs block-at-a-time encryption of one 8-block pipeline:
    // the speedup must be measured against outputs proven equal first.
    let pipeline: [[u8; 16]; 8] = std::array::from_fn(|i| [i as u8 + 1; 16]);
    let batched = aes.encrypt_batch(&pipeline);
    for (block, ct) in pipeline.iter().zip(&batched) {
        assert_eq!(*ct, aes.encrypt(*block), "batched and scalar AES disagree");
        assert_eq!(
            *ct,
            aes.encrypt_reference(*block),
            "batched AES and reference disagree"
        );
    }
    c.bench_function("crypto/aes128_pipeline8_dispatched", |b| {
        b.iter(|| aes.encrypt_batch(black_box(&pipeline)))
    });
    let portable = aes.encrypt_batch_portable(&pipeline);
    assert_eq!(batched, portable, "dispatched and portable AES disagree");
    c.bench_function("crypto/aes128_pipeline8_portable", |b| {
        b.iter(|| aes.encrypt_batch_portable(black_box(&pipeline)))
    });
    c.bench_function("crypto/aes128_pipeline8_scalar", |b| {
        b.iter(|| {
            let blocks = black_box(&pipeline);
            let mut out = [[0u8; 16]; 8];
            for (o, blk) in out.iter_mut().zip(blocks) {
                *o = aes.encrypt(*blk);
            }
            out
        })
    });

    let keys = BlockCipherKeys::from_seed(1);
    let plain = DataBlock::from_words([3; 8]);
    c.bench_function("crypto/encrypt_64B_block", |b| {
        b.iter(|| keys.encrypt_block(black_box(0x40), black_box(9), &plain))
    });
    let cipher = keys.encrypt_block(0x40, 9, &plain);
    c.bench_function("crypto/mac_64B_block", |b| {
        b.iter(|| keys.mac_block(black_box(0x40), black_box(9), &cipher))
    });
}

fn bench_gf(c: &mut Criterion) {
    let (x, y) = (0x0123_4567_89ab_cdefu64, 0xfedc_ba98_7654_3211u64);
    assert_eq!(
        gf64_mul(x, y),
        gf64_mul_portable(x, y),
        "dispatched and bit-serial GF multiply disagree"
    );
    c.bench_function("crypto/gf64_mul_dispatched", |b| {
        b.iter(|| gf64_mul(black_box(x), black_box(y)))
    });
    c.bench_function("crypto/gf64_mul_portable", |b| {
        b.iter(|| gf64_mul_portable(black_box(x), black_box(y)))
    });

    let keys = MacKeys::from_seed(3);
    let words: [u64; 8] = std::array::from_fn(|i| x.rotate_left(8 * i as u32) ^ y);
    assert_eq!(
        keys.dot_product(&words),
        keys.dot_product_portable(&words),
        "dispatched and bit-serial dot product disagree"
    );
    c.bench_function("crypto/mac_dot_product_dispatched", |b| {
        b.iter(|| keys.dot_product(black_box(&words)))
    });
    c.bench_function("crypto/mac_dot_product_portable", |b| {
        b.iter(|| keys.dot_product_portable(black_box(&words)))
    });
}

fn bench_functional_memory(c: &mut Criterion) {
    // The secure-memory service's space: 16K lines, Morphable counters,
    // every line written once.
    const LINES: u64 = 1 << 14;
    let value = |l: u64| DataBlock::from_words([l.wrapping_mul(0x9E37_79B9_7F4A_7C15); 8]);
    let mut mem = FunctionalSecureMemory::with_design(5, LINES, CounterDesign::Morphable);
    for l in 0..LINES {
        mem.write(LineAddr::new(l), value(l))
            .expect("fresh memory accepts every write");
    }
    for l in 0..LINES {
        assert_eq!(
            mem.read_checked(LineAddr::new(l)),
            Ok(value(l)),
            "checked read returns the written value"
        );
    }
    c.bench_function("secmem/read_checked_16k_morphable", |b| {
        let mut l = 0u64;
        b.iter(|| {
            l = (l + 97) % LINES;
            mem.read_checked(black_box(LineAddr::new(l)))
        })
    });
}

fn bench_morphable(c: &mut Criterion) {
    let mut minors = [0u16; 128];
    for (i, m) in minors.iter_mut().enumerate() {
        *m = (i % 8) as u16;
    }
    c.bench_function("counters/morphable_encode", |b| {
        b.iter(|| encode_morphable(MorphFormat::Uniform3, 5, black_box(&minors), 0x99))
    });
    let bytes = encode_morphable(MorphFormat::Uniform3, 5, &minors, 0x99);
    c.bench_function("counters/morphable_decode", |b| {
        b.iter(|| decode_morphable(black_box(&bytes)))
    });
}

fn bench_cache(c: &mut Criterion) {
    c.bench_function("cache/l2_insert_touch", |b| {
        let mut cache: SetAssocCache<u8> = SetAssocCache::new(CacheConfig::new(1024 * 1024, 8));
        let mut rng = Rng64::new(3);
        b.iter(|| {
            let a = LineAddr::new(rng.below(1 << 20));
            cache.insert(a, false, 0);
            black_box(cache.touch(a))
        })
    });
}

fn bench_dram(c: &mut Criterion) {
    c.bench_function("dram/enqueue_pump_cycle", |b| {
        let mut dram = Dram::new(DramConfig::table_i(1));
        let mut rng = Rng64::new(5);
        let mut now = Time::ZERO;
        let mut id = 0u64;
        let mut issued = Vec::new();
        b.iter(|| {
            id += 1;
            now += Time::from_ns(10);
            let line = LineAddr::new(rng.below(1 << 24));
            dram.enqueue(DramRequest::read(id, line, RequestClass::Data), now);
            issued.clear();
            dram.pump(now, &mut issued);
            black_box(issued.len())
        })
    });
}

fn bench_event_queue(c: &mut Criterion) {
    // Steady-state churn: push/pop against 10k pending events, the regime
    // run-loop profiles show (heap always warm, never drained).
    c.bench_function("sim/event_queue_churn_10k_pending", |b| {
        let mut q = EventQueue::with_capacity(1 << 14);
        let mut rng = Rng64::new(11);
        let mut now = Time::ZERO;
        for _ in 0..10_000 {
            q.push(Time::from_ns(rng.below(1 << 20)), 0u64);
        }
        b.iter(|| {
            now += Time::from_ns(1);
            q.push(now + Time::from_ns(rng.below(1 << 10)), black_box(7u64));
            let popped = q.pop().expect("queue stays non-empty");
            black_box(popped)
        })
    });
}

fn bench_noc(c: &mut Criterion) {
    let mesh = Mesh::xeon_w3175x();
    let lat = NocLatency::calibrated();
    c.bench_function("noc/latency_lookup", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % 28;
            black_box(lat.one_way(mesh.hops_core_to_core(i, 27 - i), true))
        })
    });
}

criterion_group!(
    benches,
    bench_aes,
    bench_gf,
    bench_morphable,
    bench_functional_memory,
    bench_cache,
    bench_dram,
    bench_event_queue,
    bench_noc
);
criterion_main!(benches);
