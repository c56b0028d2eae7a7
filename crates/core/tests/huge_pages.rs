//! A fresh large block of application data is advised `MADV_HUGEPAGE`
//! before its first write: a `shared_malloc` buffer, a packed body, and the
//! vector a `wait_recv` returns. The kernel records the advice on the
//! mapping (`hg` in the `VmFlags` of `/proc/self/smaps`) when `madvise` is
//! called, not when a huge page is granted, so this holds under any THP
//! setting that exists.
#![cfg(target_os = "linux")]

use std::cell::Cell;
use std::path::Path;
use std::rc::Rc;
use std::sync::Arc;

use smpi::{Datatype, Payload, World};
use smpi_platform::{flat_cluster, ClusterConfig, RoutedPlatform};
use surf_sim::TransferModel;

const HUGE_PAGE: usize = 2 << 20;
/// 8 MiB of doubles: three whole aligned extents at least, wherever the
/// allocator puts them.
const LEN: usize = (8 << 20) / 8;

/// The `VmFlags` of the mapping that holds `addr`.
fn vm_flags(addr: usize) -> Vec<String> {
    let smaps = std::fs::read_to_string("/proc/self/smaps").expect("read /proc/self/smaps");
    let mut inside = false;
    for line in smaps.lines() {
        if let Some(flags) = line.strip_prefix("VmFlags:") {
            if inside {
                return flags.split_whitespace().map(str::to_owned).collect();
            }
            continue;
        }
        let range = line
            .split_whitespace()
            .next()
            .and_then(|r| r.split_once('-'));
        if let Some((lo, hi)) = range {
            if let (Ok(lo), Ok(hi)) = (usize::from_str_radix(lo, 16), usize::from_str_radix(hi, 16))
            {
                inside = (lo..hi).contains(&addr);
            }
        }
    }
    panic!("no mapping holds {addr:#x}");
}

/// Asserts that the first whole 2 MiB extent of `block` is advised.
fn assert_advised(what: &str, block: &[f64]) {
    if !Path::new("/sys/kernel/mm/transparent_hugepage").exists() {
        return; // a kernel without THP refuses the advice
    }
    let interior = (block.as_ptr() as usize).next_multiple_of(HUGE_PAGE);
    assert!(interior + HUGE_PAGE <= block.as_ptr() as usize + size_of_val(block));
    let flags = vm_flags(interior);
    assert!(
        flags.iter().any(|f| f == "hg"),
        "{what}: VmFlags {flags:?} of {interior:#x} lack `hg`"
    );
}

fn world(n: usize) -> World {
    let rp = Arc::new(RoutedPlatform::new(flat_cluster(
        "t",
        n,
        &ClusterConfig::default(),
    )));
    World::smpi(rp, TransferModel::ideal())
}

#[test]
fn a_shared_malloc_buffer_is_advised() {
    for folding in [true, false] {
        world(1).ram_folding(folding).run(1, |ctx| {
            let buf = ctx.shared_malloc::<f64>("big", LEN);
            assert_advised("shared_malloc", &buf.lock());
        });
    }
}

#[test]
fn a_packed_body_is_advised() {
    let src = vec![1.5f64; LEN];
    let body = Payload::pack(&src);
    assert_advised(
        "Payload::pack",
        f64::peek(&body).expect("a body of doubles"),
    );
}

#[test]
fn a_received_vector_is_advised() {
    let checked = Rc::new(Cell::new(false));
    let seen = Rc::clone(&checked);
    world(2).run(2, move |ctx| {
        let comm = ctx.world();
        if ctx.rank() == 0 {
            ctx.send(&vec![2.5f64; LEN], 1, 0, &comm);
        } else {
            let req = ctx.irecv::<f64>(0, 0, LEN, &comm);
            let (v, _) = ctx.wait_recv(req, &comm);
            assert_eq!(v.len(), LEN);
            assert_advised("wait_recv", &v);
            seen.set(true);
        }
    });
    assert!(checked.get());
}
