//! Model-based property tests of the storage substrate: a bank against a
//! byte-map reference under every operation and every block size, and
//! banks and vaults against operation models.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;

use hmc_mem::{Bank, VaultMemory};
use hmc_types::address::DecodedAddr;
use hmc_types::config::StorageMode;
use hmc_types::{BlockSize, HmcError};

/// Rows of the modelled bank: enough that a long case fills its first
/// chunk of cells and starts a second.
const ROWS: u64 = 96;

/// One raw operation: `kind` picks the call, and `a`, `b`, `x`, `y` are
/// reduced against the block size under test, so one sequence drives all
/// eight — legal spans, spans that cross their row, and rows past the end.
type RawOp = (u8, u64, (u32, u32), (u64, u64));

/// Why the model expects a call to be refused.
#[derive(Debug, Clone, Copy)]
enum Refused {
    /// The row lies past the end of the bank: `HmcError::OutOfRange`.
    Row,
    /// The span would leave its row: `HmcError::InvalidAddress`.
    Span,
}

/// A [`Bank`] beside the reference it must agree with: its bytes as a
/// `(row, byte) -> u8` map (absent = 0) and the rows it has materialised.
/// A timing-only twin takes every call too: it must refuse the same calls
/// and hold nothing.
struct Model {
    block: u32,
    bank: Bank,
    twin: Bank,
    bytes: HashMap<(u64, u32), u8>,
    touched: HashSet<u64>,
}

impl Model {
    fn new(block: u32) -> Self {
        Model {
            block,
            bank: Bank::new(ROWS, block, StorageMode::Functional),
            twin: Bank::new(ROWS, block, StorageMode::TimingOnly),
            bytes: HashMap::new(),
            touched: HashSet::new(),
        }
    }

    fn get(&self, row: u64, at: u32, len: u32) -> Vec<u8> {
        (at..at + len)
            .map(|i| *self.bytes.get(&(row, i)).unwrap_or(&0))
            .collect()
    }

    fn put(&mut self, row: u64, at: u32, data: &[u8]) {
        self.touched.insert(row);
        for (i, &b) in data.iter().enumerate() {
            self.bytes.insert((row, at + i as u32), b);
        }
    }

    /// The error `(row, offset, len)` must draw, if any.
    fn admit(&self, row: u64, offset: u32, len: u32) -> Option<Refused> {
        if row >= ROWS {
            return Some(Refused::Row);
        }
        if offset + len > self.block {
            return Some(Refused::Span);
        }
        None
    }

    /// Both banks answered `got` / `twin` where the model expected
    /// `refused`: the right typed error, or success.
    fn check_outcome<T>(
        refused: Option<Refused>,
        got: &Result<T, HmcError>,
        twin: &Result<T, HmcError>,
    ) {
        for r in [got, twin] {
            match (refused, r) {
                (None, Ok(_)) => {}
                (Some(Refused::Row), Err(HmcError::OutOfRange { what: "row", .. })) => {}
                (Some(Refused::Span), Err(HmcError::InvalidAddress { .. })) => {}
                (want, Err(e)) => panic!("expected {want:?}, got error {e}"),
                (want, Ok(_)) => panic!("expected {want:?}, got Ok"),
            }
        }
    }

    fn apply(&mut self, &(kind, row, (a, b), (x, y)): &RawOp) {
        let block = self.block;
        let offset = a % block;
        match kind {
            0 => {
                let len = 1 + b % block;
                let refused = self.admit(row, offset, len);
                let mut buf = vec![0xa5u8; len as usize];
                let mut zeros = vec![0xa5u8; len as usize];
                let got = self.bank.read(row, offset, &mut buf);
                let twin = self.twin.read(row, offset, &mut zeros);
                Self::check_outcome(refused, &got, &twin);
                if refused.is_none() {
                    assert_eq!(
                        buf,
                        self.get(row, offset, len),
                        "read ({row}, {offset}, {len})"
                    );
                    assert!(zeros.iter().all(|&z| z == 0), "timing-only reads are zeros");
                } else {
                    assert!(
                        buf.iter().all(|&v| v == 0xa5),
                        "a refused read writes nothing"
                    );
                }
            }
            1 => {
                let len = 1 + b % block;
                let data: Vec<u8> = (0..len).map(|i| (x >> (i % 57)) as u8 ^ i as u8).collect();
                let refused = self.admit(row, offset, len);
                let got = self.bank.write(row, offset, &data);
                let twin = self.twin.write(row, offset, &data);
                Self::check_outcome(refused, &got, &twin);
                if refused.is_none() {
                    self.put(row, offset, &data);
                }
            }
            2 => {
                let refused = self.admit(row, offset, 16);
                let got = self.bank.two_add8(row, offset, x, y);
                let twin = self.twin.two_add8(row, offset, x, y);
                Self::check_outcome(refused, &got, &twin);
                if refused.is_none() {
                    let old = self.get(row, offset, 16);
                    let old0 = u64::from_le_bytes(old[..8].try_into().unwrap());
                    let old1 = u64::from_le_bytes(old[8..].try_into().unwrap());
                    assert_eq!(got.unwrap(), (old0, old1));
                    assert_eq!(twin.unwrap(), (0, 0));
                    self.put(row, offset, &old0.wrapping_add(x).to_le_bytes());
                    self.put(row, offset + 8, &old1.wrapping_add(y).to_le_bytes());
                }
            }
            3 => {
                let op = (x as u128) << 64 | y as u128;
                let refused = self.admit(row, offset, 16);
                let got = self.bank.add16(row, offset, op);
                let twin = self.twin.add16(row, offset, op);
                Self::check_outcome(refused, &got, &twin);
                if refused.is_none() {
                    let old = u128::from_le_bytes(self.get(row, offset, 16).try_into().unwrap());
                    assert_eq!(got.unwrap(), old);
                    assert_eq!(twin.unwrap(), 0);
                    self.put(row, offset, &old.wrapping_add(op).to_le_bytes());
                }
            }
            4 => {
                let refused = self.admit(row, offset, 8);
                let got = self.bank.bit_write(row, offset, x, y);
                let twin = self.twin.bit_write(row, offset, x, y);
                Self::check_outcome(refused, &got, &twin);
                if refused.is_none() {
                    let old = u64::from_le_bytes(self.get(row, offset, 8).try_into().unwrap());
                    assert_eq!(got.unwrap(), old);
                    assert_eq!(twin.unwrap(), 0);
                    self.put(row, offset, &((old & !y) | (x & y)).to_le_bytes());
                }
            }
            5 => {
                // Words 0 ..= block/8 + 1: the last two lie past the row.
                let word = b % (block / 8 + 2);
                let xor = if y % 8 == 0 { 0 } else { x };
                self.bank.corrupt_word(row, word, xor);
                self.twin.corrupt_word(row, word, xor);
                if row < ROWS && word * 8 + 8 <= block && xor != 0 {
                    let old = u64::from_le_bytes(self.get(row, word * 8, 8).try_into().unwrap());
                    self.put(row, word * 8, &(old ^ xor).to_le_bytes());
                }
            }
            _ => {
                self.bank.reset();
                self.twin.reset();
                self.bytes.clear();
                self.touched.clear();
            }
        }
        self.check_residency();
    }

    /// Residency after every call, legal or not.
    fn check_residency(&self) {
        assert_eq!(
            self.bank.resident_bytes(),
            self.touched.len() as u64 * self.block as u64,
            "one cell per touched row, none for a read or a refused call"
        );
        assert_eq!(self.twin.resident_bytes(), 0);
    }

    /// Every byte of every row, touched or not, through whole-row reads.
    fn check_image(&mut self) {
        let before = self.bank.resident_bytes();
        let mut buf = vec![0u8; self.block as usize];
        for row in 0..ROWS {
            self.bank.read(row, 0, &mut buf).unwrap();
            assert_eq!(buf, self.get(row, 0, self.block), "row {row}");
        }
        assert_eq!(
            self.bank.resident_bytes(),
            before,
            "reads materialise nothing"
        );
    }
}

fn raw_op() -> impl Strategy<Value = RawOp> {
    (
        // Reads and writes twice as likely as each atomic; resets rare.
        prop::sample::select(vec![0u8, 0, 0, 0, 1, 1, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6]),
        // One row in 25 lies past the end of the bank.
        (0..ROWS + 4),
        (any::<u32>(), any::<u32>()),
        (any::<u64>(), any::<u64>()),
    )
}

proptest! {
    #[test]
    fn bank_matches_a_byte_map_for_every_block_size(
        ops in prop::collection::vec(raw_op(), 1..160)
    ) {
        for size in BlockSize::ALL {
            let mut model = Model::new(size.bytes() as u32);
            for op in &ops {
                model.apply(op);
            }
            model.check_image();
        }
    }

    #[test]
    fn small_writes_to_distinct_rows_cost_one_cell_each(
        rows in prop::collection::vec(0u64..4096, 1..300),
        slot in any::<u32>(),
    ) {
        let distinct: HashSet<u64> = rows.iter().copied().collect();
        for size in BlockSize::ALL {
            let block = size.bytes() as u32;
            let mut bank = Bank::new(4096, block, StorageMode::Functional);
            let mut buf = [0xffu8; 16];
            for &row in &rows {
                // Looking first costs nothing.
                bank.read(row ^ 1, 0, &mut buf).unwrap();
                bank.write(row, slot % (block / 16) * 16, &[0x5a; 16]).unwrap();
            }
            prop_assert_eq!(bank.resident_bytes(), distinct.len() as u64 * block as u64);
            bank.reset();
            prop_assert_eq!(bank.resident_bytes(), 0);
        }
    }

    #[test]
    fn bank_rows_behave_like_independent_arrays(
        writes in prop::collection::vec((0u64..32, 0u32..4, any::<u8>()), 1..40)
    ) {
        // Bank: 32 rows x 128 bytes; write 32-byte chunks at 4 offsets.
        let mut bank = Bank::new(32, 128, StorageMode::Functional);
        let mut model: HashMap<(u64, u32), [u8; 32]> = HashMap::new();
        for &(row, slot, val) in &writes {
            let offset = slot * 32;
            let data = [val; 32];
            bank.write(row, offset, &data).unwrap();
            model.insert((row, slot), data);
        }
        for (&(row, slot), expect) in &model {
            let mut buf = [0u8; 32];
            bank.read(row, slot * 32, &mut buf).unwrap();
            prop_assert_eq!(&buf, expect);
        }
    }

    #[test]
    fn atomics_commute_with_their_arithmetic_model(
        seed0 in any::<u64>(),
        seed1 in any::<u64>(),
        adds in prop::collection::vec((any::<u64>(), any::<u64>()), 1..20)
    ) {
        let mut bank = Bank::new(4, 128, StorageMode::Functional);
        bank.write(0, 0, &seed0.to_le_bytes()).unwrap();
        bank.write(0, 8, &seed1.to_le_bytes()).unwrap();
        let (mut m0, mut m1) = (seed0, seed1);
        for &(a, b) in &adds {
            bank.two_add8(0, 0, a, b).unwrap();
            m0 = m0.wrapping_add(a);
            m1 = m1.wrapping_add(b);
        }
        let mut buf = [0u8; 8];
        bank.read(0, 0, &mut buf).unwrap();
        prop_assert_eq!(u64::from_le_bytes(buf), m0);
        bank.read(0, 8, &mut buf).unwrap();
        prop_assert_eq!(u64::from_le_bytes(buf), m1);
    }

    #[test]
    fn bit_write_only_touches_masked_bits(
        initial in any::<u64>(),
        data in any::<u64>(),
        mask in any::<u64>(),
    ) {
        let mut bank = Bank::new(4, 128, StorageMode::Functional);
        bank.write(1, 0, &initial.to_le_bytes()).unwrap();
        bank.bit_write(1, 0, data, mask).unwrap();
        let mut buf = [0u8; 8];
        bank.read(1, 0, &mut buf).unwrap();
        prop_assert_eq!(
            u64::from_le_bytes(buf),
            (initial & !mask) | (data & mask)
        );
    }

    #[test]
    fn vault_memory_isolates_banks(
        ops in prop::collection::vec((0u16..8, 0u64..16, any::<u8>()), 1..40)
    ) {
        let mut vm = VaultMemory::from_parts(8, 16, 128, StorageMode::Functional);
        let mut model: HashMap<(u16, u64), u8> = HashMap::new();
        for &(bank, row, val) in &ops {
            let at = DecodedAddr { vault: 0, bank, row, offset: 0 };
            vm.write(at, &[val; 16]).unwrap();
            model.insert((bank, row), val);
        }
        for (&(bank, row), &val) in &model {
            let at = DecodedAddr { vault: 0, bank, row, offset: 0 };
            let mut buf = [0u8; 16];
            vm.read(at, &mut buf).unwrap();
            prop_assert_eq!(buf, [val; 16]);
        }
    }

    #[test]
    fn timing_only_banks_never_allocate(
        ops in prop::collection::vec((0u64..64, any::<u8>()), 1..50)
    ) {
        let mut bank = Bank::new(64, 128, StorageMode::TimingOnly);
        for &(row, val) in &ops {
            bank.write(row, 0, &[val; 64]).unwrap();
        }
        prop_assert_eq!(bank.resident_bytes(), 0);
    }
}
