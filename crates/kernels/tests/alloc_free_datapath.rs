//! With tracing off, executing a macro-op allocates nothing: operands
//! decode into buffers the machine reuses, results land in the Tmp Reg
//! in place, write-backs and host lane writes encode straight into the
//! row, and trace mnemonics are never formatted. Allocations are counted
//! per thread by this test binary's global allocator, after one warm-up
//! pass has grown the reused buffers.

use pimvo_kernels::ir::{
    self, hpf_program, lpf_pass1_program, lpf_pass2_program, nms_program, scratch_pool,
};
use pimvo_kernels::pim_util::{ghost_mask, Regions};
use pimvo_kernels::{EdgeConfig, GrayImage};
use pimvo_pim::{
    lower, AluOp, ArrayConfig, LaneWidth, LogicFunc, LowerLevel, Operand, PimMachine, Shift,
    Signedness,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// per-thread counter is a const-initialised `Cell` with no destructor.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made on this thread while running `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// One pass over every compute macro-op, both shift directions, all
/// three operand kinds and the host lane-write port.
fn every_op(m: &mut PimMachine) {
    let (a, b) = (Operand::Row(0), Operand::Row(1));
    m.host_write_lanes(0, &[3, -7, 12, 5]).unwrap();
    m.host_broadcast(1, -2).unwrap();
    m.add(a, b);
    m.save_tmp(1);
    for op in [
        AluOp::Logic(LogicFunc::Xor),
        AluOp::Add,
        AluOp::Sub,
        AluOp::SatAdd,
        AluOp::SatSub,
        AluOp::Avg,
        AluOp::AbsDiff,
        AluOp::Max,
        AluOp::Min,
        AluOp::CmpGt,
    ] {
        for (x, y) in [(a, b), (Operand::Tmp, a), (b, Operand::Reg(1))] {
            for shift in [Shift::None, Shift::Pix(1), Shift::Pix(-3)] {
                m.alu(op, x, y, shift);
            }
        }
    }
    m.shift_pix(Operand::Tmp, 2);
    m.shr_bits(a, 1);
    m.shl_bits(Operand::Reg(1), 2);
    m.neg(Operand::Tmp);
    m.sat_narrow(Operand::Tmp, 6);
    m.writeback(2);
    m.mul_signed(a, Operand::Row(2));
    m.div_frac(a, b, 4);
    m.save_tmp(1);
    m.reduce_sum();
}

#[test]
fn untraced_macro_ops_allocate_nothing() {
    let mut m = PimMachine::builder(ArrayConfig::qvga())
        .lanes(LaneWidth::W16, Signedness::Signed)
        .tmp_regs(2)
        .build();
    every_op(&mut m);
    assert_eq!(allocations(|| every_op(&mut m)), 0);

    // the same ops allocate when traced: the guard above is not vacuous
    m.set_tracing(true);
    every_op(&mut m);
    assert!(allocations(|| every_op(&mut m)) > 0);
}

#[test]
fn untraced_edge_programs_allocate_nothing() {
    let img = GrayImage::from_fn(320, 240, |x, y| (x * 7 + y * 13) as u8);
    let cfg = EdgeConfig::default();
    let mut m = PimMachine::new(ArrayConfig::qvga_banks(6));
    // loads the frame and every constant row the programs read
    let _ = ir::edge_detect(&mut m, &img, &cfg, LowerLevel::Opt);
    let r = Regions::for_machine(&m, img.height());
    let h = img.height();
    let mask = ghost_mask(&mut m, &r, img.width() as usize);
    let hi = i64::from(h);
    let programs = [
        lpf_pass1_program(&r, r.input, h, 0, hi),
        lpf_pass2_program(&r, r.aux2, h, mask, 0, hi),
        hpf_program(&r, r.aux2, r.aux3, h, mask, 0, hi),
        nms_program(&r, r.aux3, r.out, h, mask, 0, hi),
    ]
    .map(|p| lower(&p, LowerLevel::Opt, &scratch_pool(&r)).unwrap());
    for p in &programs {
        let n = allocations(|| {
            m.run_program(p).unwrap();
        });
        assert_eq!(n, 0, "{} allocated {n} times", p.name());
    }
}
