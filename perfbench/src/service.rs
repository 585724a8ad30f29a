//! Secure-memory service workload: one client's operation script.
//!
//! Set-up starts a `SecureMemoryService` (Morphable counters, in-memory
//! backend), writes every line of its space once in 64-line batches and
//! installs a checkpoint — what a service pays before it can serve. One
//! unit is one operation of a seed-derived script of [`CHECKPOINT_EVERY`]
//! operations with `service_bench`'s mix: 60% single-line writes, 20%
//! guarded writes, 20% four-line batch reads, each checked against a
//! model of the acknowledged writes. The script's last operation is a
//! checkpoint, which keeps the journal, and so memory, bounded over any
//! run length. Every round replays the script on the same lines with
//! fresh values.
//!
//! Traced, every operation is also applied to a bare
//! `FunctionalSecureMemory` (the layer beneath the service: encryption,
//! MAC and integrity tree without lock or journal), so the service's own
//! overhead shows as the difference.

use emcc::counters::CounterDesign;
use emcc::crypto::DataBlock;
use emcc::secmem::service::InMemoryBackend;
use emcc::secmem::{FunctionalSecureMemory, MemoryAdt, SecureMemoryService, ServiceConfig};
use emcc::sim::LineAddr;

use crate::{mix, Layers, Workload};

/// Lines in the service's protected space (`service_bench`'s size).
const LINES: u64 = 1 << 14;

/// Lines per write batch while filling the space at set-up.
const FILL_BATCH: u64 = 64;

/// Operations per script, the last being a checkpoint.
const CHECKPOINT_EVERY: u64 = 4096;

/// Lines per batch read.
const READ_BATCH: u64 = 4;

const DESIGN: CounterDesign = CounterDesign::Morphable;

pub struct Service {
    seed: u64,
    svc: SecureMemoryService<InMemoryBackend>,
    /// The last acknowledged value of every line.
    model: Vec<DataBlock>,
    /// Traced runs only: the same operations on the bare functional memory.
    mirror: Option<FunctionalSecureMemory>,
    op: u64,
}

fn block(v: u64) -> DataBlock {
    DataBlock::from_words(std::array::from_fn(|w| v.rotate_left(8 * w as u32)))
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

impl Workload for Service {
    fn setup(seed: u64, layers: &mut Layers) -> Result<Self, String> {
        let svc = SecureMemoryService::with_design(
            InMemoryBackend::new(),
            seed,
            LINES,
            DESIGN,
            ServiceConfig::default(),
        );
        let model: Vec<DataBlock> = (0..LINES).map(|l| block(mix(seed, l))).collect();
        for start in (0..LINES).step_by(FILL_BATCH as usize) {
            let batch: Vec<(LineAddr, DataBlock)> = (start..start + FILL_BATCH)
                .map(|l| (LineAddr::new(l), model[l as usize]))
                .collect();
            svc.batch_write(&batch).map_err(err)?;
        }
        svc.checkpoint().map_err(err)?;
        let mirror = layers.on().then(|| {
            let mut m = FunctionalSecureMemory::with_design(seed, LINES, DESIGN);
            for (l, v) in (0..LINES).zip(&model) {
                m.write(LineAddr::new(l), *v);
            }
            m
        });
        Ok(Service {
            seed,
            svc,
            model,
            mirror,
            op: 0,
        })
    }

    fn round_len(&self) -> usize {
        CHECKPOINT_EVERY as usize
    }

    fn unit(&mut self, layers: &mut Layers) -> Result<(), String> {
        self.op += 1;
        let svc = &self.svc;
        let pos = self.op % CHECKPOINT_EVERY;
        if pos == 0 {
            return layers
                .time("svc_checkpoint", || svc.checkpoint())
                .map_err(err);
        }
        let r = mix(self.seed ^ 0x5E4B, pos);
        let line = (r >> 16) % LINES;
        let addr = LineAddr::new(line);
        let value = block(mix(r, self.op));
        match r % 10 {
            0..=5 => {
                layers
                    .time("svc_write", || svc.batch_write(&[(addr, value)]))
                    .map_err(err)?;
                if let Some(m) = &mut self.mirror {
                    layers.time("mem_write", || m.write(addr, value));
                }
                self.model[line as usize] = value;
            }
            6 | 7 => {
                let guard = self.model[line as usize];
                let seen = layers
                    .time("svc_guarded", || {
                        svc.guarded_write((addr, Some(guard)), &[(addr, value)])
                    })
                    .map_err(err)?;
                if seen != Some(guard) {
                    return Err(format!("guarded write on line {line} saw {seen:?}"));
                }
                if let Some(m) = &mut self.mirror {
                    let got = layers.time("mem_read", || m.read(addr));
                    if got != Ok(guard) {
                        return Err(format!("functional memory line {line} read {got:?}"));
                    }
                    layers.time("mem_write", || m.write(addr, value));
                }
                self.model[line as usize] = value;
            }
            _ => {
                let addrs: Vec<LineAddr> = (0..READ_BATCH)
                    .map(|k| LineAddr::new((line + k) % LINES))
                    .collect();
                let got = layers
                    .time("svc_read", || svc.batch_read(&addrs))
                    .map_err(err)?;
                for (a, g) in addrs.iter().zip(&got) {
                    let want = self.model[a.get() as usize];
                    if *g != Some(want) {
                        return Err(format!("line {}: read {g:?}, wrote {want:?}", a.get()));
                    }
                }
                if let Some(m) = &self.mirror {
                    for a in &addrs {
                        let got = layers.time("mem_read", || m.read(*a));
                        if got != Ok(self.model[a.get() as usize]) {
                            return Err(format!("functional memory line {} read {got:?}", a.get()));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}
