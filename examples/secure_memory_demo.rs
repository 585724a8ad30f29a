//! Functional secure-memory demo: real encryption, MACs, integrity tree —
//! and what happens when an attacker with physical access tampers with
//! DRAM contents (the paper's §II threat model).
//!
//! ```sh
//! cargo run --example secure_memory_demo
//! ```

use emcc::crypto::DataBlock;
use emcc::secmem::FunctionalSecureMemory;
use emcc::sim::LineAddr;

fn main() {
    let mut mem = FunctionalSecureMemory::new(0xC0FFEE, 1 << 20);
    let line = LineAddr::new(0x40);
    let secret = DataBlock::from_words([
        0x5365_6372_6574_2121, // program data the attacker wants
        2,
        3,
        4,
        5,
        6,
        7,
        8,
    ]);

    println!("== confidentiality ==");
    mem.write(line, secret)
        .expect("no rebase crosses a tampered line");
    let raw = mem.raw(line).expect("line was written");
    println!("plaintext word 0:  {:#018x}", secret.words()[0]);
    println!(
        "DRAM (bus probe):  {:#018x}  <- ciphertext only",
        raw.cipher.words()[0]
    );
    println!("MAC co-located:    {}", raw.mac);

    println!("\n== freshness (counter-mode) ==");
    mem.write(line, secret)
        .expect("no rebase crosses a tampered line"); // same plaintext again
    let raw2 = mem.raw(line).expect("line still exists");
    println!(
        "same plaintext re-written -> new ciphertext: {:#018x}",
        raw2.cipher.words()[0]
    );
    assert_ne!(raw.cipher, raw2.cipher, "pads must never repeat");

    println!("\n== integrity: bit-flip attack ==");
    let snapshot = mem.raw(line).expect("snapshot for later replay");
    mem.tamper_flip_bit(line, 3);
    match mem.read(line) {
        Err(e) => println!("read after tamper: DETECTED ({e})"),
        Ok(_) => unreachable!("tampering must not go unnoticed"),
    }

    println!("\n== integrity: replay attack ==");
    mem.write(line, DataBlock::from_words([99; 8]))
        .expect("no rebase crosses a tampered line"); // victim stores v2
    mem.tamper_replay(line, snapshot); // attacker restores old (valid!) v1
    match mem.read(line) {
        Err(e) => println!("read after replay: DETECTED ({e})"),
        Ok(_) => unreachable!("replay must not go unnoticed"),
    }

    println!("\n== EMCC split verification ==");
    let line2 = LineAddr::new(0x80);
    mem.write(line2, secret)
        .expect("no rebase crosses a tampered line");
    let via_mc = mem.read(line2).expect("normal read verifies");
    let via_l2 = mem.read_split(line2).expect("split read verifies");
    assert_eq!(via_mc, via_l2);
    println!("MC-side full verify == L2-side (AES half vs MAC xor dot-product): OK");

    println!(
        "\ncounters: {} overflows (level 0), {} lines re-encrypted by rebases",
        mem.tree().overflows_by_level()[0],
        mem.reencrypted_lines()
    );
}
