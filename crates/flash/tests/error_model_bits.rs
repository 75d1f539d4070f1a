//! Bit-exact pins of the error model.
//!
//! The simulator's reports are a function of these floats, so any change
//! to how the V_TH model evaluates them (table lookups, shared state
//! parameters, fixed-size buffers) must leave every bit where it was.
//! The constants were recorded with `f64::to_bits` from the direct
//! per-call evaluation that the model used before those optimisations.

use rif_flash::mlc::MlcModel;
use rif_flash::vth::OperatingPoint;
use rif_flash::{BlockProfile, ErrorModel, PageKind, TlcModel};

/// P/E counts: fresh, mid-life, and end-of-life plus drift-clock wear
/// (`SsdConfig::drift` adds P/E cycles on top of the configured count).
const PE: [u32; 3] = [0, 1000, 2037];
/// Retention ages in days: none, a few days, and past the Fig. 4
/// crossing with a fractional drift-clock remainder.
const DAYS: [f64; 3] = [0.0, 3.5, 21.0625];
/// Block read counts: none, and enough to shift the erased state.
const READS: [u64; 2] = [0, 4321];
/// Process-variation factors: the strongest clamp, median, weak.
const FACTORS: [f64; 3] = [0.55, 1.0, 1.7];
/// The uniform V_REF offset `rber_at` is pinned at.
const AT_OFFSET: f64 = -0.0725;

/// One row per (P/E, days, reads, factor, kind), in that nesting order:
/// `rber_default`, `rber_optimal`, `rber_at` and
/// `TlcModel::ones_fraction` at the default references, as raw bits.
/// Also asserts that `rber_default_and_optimal` returns the first two.
fn tlc_rows() -> Vec<[u64; 4]> {
    let model = ErrorModel::calibrated();
    let tlc = TlcModel::calibrated();
    let defaults = model.default_refs();
    let offset = defaults.offset_all(AT_OFFSET);
    let mut rows = Vec::new();
    for pe_cycles in PE {
        for retention_days in DAYS {
            for reads in READS {
                for factor in FACTORS {
                    let op = OperatingPoint {
                        pe_cycles,
                        retention_days,
                        reads,
                    };
                    let block = BlockProfile { factor };
                    let params = tlc.state_params(op, factor);
                    for kind in PageKind::ALL {
                        let default = model.rber_default(block, op, kind).to_bits();
                        let optimal = model.rber_optimal(block, op, kind).to_bits();
                        // The simulator's entry point must agree with the
                        // two single-purpose evaluations, which the rows
                        // pin against `TLC_BITS`.
                        let (d, o) = model.rber_default_and_optimal(block, op, kind);
                        assert_eq!(
                            (d.to_bits(), o.to_bits()),
                            (default, optimal),
                            "rber_default_and_optimal diverged at {op:?} {factor} {kind}"
                        );
                        rows.push([
                            default,
                            optimal,
                            model.rber_at(block, op, offset, kind).to_bits(),
                            tlc.ones_fraction(&params, defaults.as_array(), kind)
                                .to_bits(),
                        ]);
                    }
                }
            }
        }
    }
    rows
}

/// One row per (P/E, days, factor): `MlcModel::rber` at the default
/// references for QLC pages 0–3, then the SLC page, as raw bits.
fn mlc_rows() -> Vec<[u64; 5]> {
    let qlc = MlcModel::qlc();
    let slc = MlcModel::slc_like();
    let (qlc_refs, slc_refs) = (qlc.default_refs(), slc.default_refs());
    let mut rows = Vec::new();
    for pe_cycles in PE {
        for retention_days in DAYS {
            for factor in FACTORS {
                let op = OperatingPoint::new(pe_cycles, retention_days);
                let q = |page| qlc.rber(op, factor, &qlc_refs, page).to_bits();
                rows.push([
                    q(0),
                    q(1),
                    q(2),
                    q(3),
                    slc.rber(op, factor, &slc_refs, 0).to_bits(),
                ]);
            }
        }
    }
    rows
}

#[rustfmt::skip]
const TLC_BITS: [[u64; 4]; 162] = [
    [0x3f1745e2cc786400, 0x3f1745e2cc786400, 0x3f32e1797ebd8f00, 0x3fe0000000000000],
    [0x3f21746a195a4b00, 0x3f21746a195a4b00, 0x3f3c52363e1c5880, 0x3fe0000000000000],
    [0x3f079baeb076e800, 0x3f079baeb076e800, 0x3f230ea6c6320400, 0x3fdffffefc899305],
    [0x3f1745e2cc786400, 0x3f1745e2cc786400, 0x3f32e1797ebd8f00, 0x3fe0000000000000],
    [0x3f21746a195a4b00, 0x3f21746a195a4b00, 0x3f3c52363e1c5880, 0x3fe0000000000000],
    [0x3f079baeb076e800, 0x3f079baeb076e800, 0x3f230ea6c6320400, 0x3fdffffefc899305],
    [0x3f1745e2cc786400, 0x3f1745e2cc786400, 0x3f32e1797ebd8f00, 0x3fe0000000000000],
    [0x3f21746a195a4b00, 0x3f21746a195a4b00, 0x3f3c52363e1c5880, 0x3fe0000000000000],
    [0x3f079baeb076e800, 0x3f079baeb076e800, 0x3f230ea6c6320400, 0x3fdffffefc899305],
    [0x3f1745e2cc786400, 0x3f1745e2cc786400, 0x3f32e1797ebd8f00, 0x3fe0000000000000],
    [0x3f21746a195a4d00, 0x3f21746a195a4d00, 0x3f3c52363e1c5c80, 0x3fe0000000000000],
    [0x3f07c3bd673d8800, 0x3f07c0980a142c00, 0x3f232b08942a5e00, 0x3fdffffdbc13dcd0],
    [0x3f1745e2cc786400, 0x3f1745e2cc786400, 0x3f32e1797ebd8f00, 0x3fe0000000000000],
    [0x3f21746a195a4d00, 0x3f21746a195a4d00, 0x3f3c52363e1c5c80, 0x3fe0000000000000],
    [0x3f07c3bd673d8800, 0x3f07c0980a142c00, 0x3f232b08942a5e00, 0x3fdffffdbc13dcd0],
    [0x3f1745e2cc786400, 0x3f1745e2cc786400, 0x3f32e1797ebd8f00, 0x3fe0000000000000],
    [0x3f21746a195a4d00, 0x3f21746a195a4d00, 0x3f3c52363e1c5c80, 0x3fe0000000000000],
    [0x3f07c3bd673d8800, 0x3f07c0980a142c00, 0x3f232b08942a5e00, 0x3fdffffdbc13dcd0],
    [0x3f368b0b86960f00, 0x3f2300e363ec2e00, 0x3f251caaf3f5e600, 0x3fdffe4ad4151e70],
    [0x3f3d502f31f2b700, 0x3f2cf5dc6fe64900, 0x3f312702e880be00, 0x3fe0010e86cd9c26],
    [0x3f266990204e4200, 0x3f1344f251ab1600, 0x3f1415912de46600, 0x3fdffd7301761376],
    [0x3f521e3378bbcdc0, 0x3f24939c71197400, 0x3f31765c0704bd00, 0x3fdff794a8bf8035],
    [0x3f54cffd41f72500, 0x3f2fc5b518fab700, 0x3f35cd9ad14bf300, 0x3fe003b27147f01b],
    [0x3f4132dbe2e1cf00, 0x3f14cd7764da0a00, 0x3f1face5aff0e200, 0x3fdff78554e314ce],
    [0x3f76dc4f8f794268, 0x3f2747d090fb5800, 0x3f59fdae3c7e3d00, 0x3fdfc865b138fc57],
    [0x3f7777e67334df80, 0x3f32598e47244100, 0x3f5902b99c1eb800, 0x3fe012f102149fdb],
    [0x3f644d400fb35fa0, 0x3f177274f1d56400, 0x3f45815b9c8da700, 0x3fdfd79a9f3f52d2],
    [0x3f368b0b86960f00, 0x3f2300e363ec2e00, 0x3f251caaf3f5e600, 0x3fdffe4ad4151e70],
    [0x3f3d502f31f2bb00, 0x3f2cf5dc6fe65b00, 0x3f312702e880d600, 0x3fe0010e86cd9c26],
    [0x3f267aac1e17f200, 0x3f136f81f0c94e00, 0x3f1470e91fcc1e00, 0x3fdffd70ddf65a40],
    [0x3f521e3378bbcdc0, 0x3f24939c71197400, 0x3f31765c0704bd00, 0x3fdff794a8bf8035],
    [0x3f54cffd41f72600, 0x3f2fc5b518fae100, 0x3f35cd9ad14c0b00, 0x3fe003b27147f01b],
    [0x3f413722e2543b00, 0x3f1502e0c5465000, 0x3f20041ed0ec4d00, 0x3fdff78331635b98],
    [0x3f76dc4f8f794268, 0x3f2747d090fb5800, 0x3f59fdae3c7e3d00, 0x3fdfc865b138fc57],
    [0x3f7777e67334dfc0, 0x3f32598e47247f00, 0x3f5902b99c1ebe00, 0x3fe012f102149fdb],
    [0x3f644e51cf8ffaa0, 0x3f17be12f62f0200, 0x3f458cc69aca9e00, 0x3fdfd7987bbf999c],
    [0x3f5ed4b143048d80, 0x3f2e7d0246970000, 0x3f400da3dad61a00, 0x3fdff13fe97497a0],
    [0x3f61864f19a0c720, 0x3f3795d973f34500, 0x3f42fc8ab5dc9400, 0x3fe0064e5177d638],
    [0x3f4d2f50d38bc040, 0x3f1f02879c18f800, 0x3f2d2acb9c354e00, 0x3fdff19be0fa337f],
    [0x3f892dc3695df010, 0x3f31c81003e9b280, 0x3f71815c54703d90, 0x3fdf82edbc79df2e],
    [0x3f89ae539125e030, 0x3f3c3b8d85259e00, 0x3f707d71597c4ee8, 0x3fe029c21a3c34df],
    [0x3f766a6759190d80, 0x3f220c37fdc37600, 0x3f5cc275d6c45480, 0x3fdfa6e196ed900a],
    [0x3fb349d07df865ae, 0x3f36900afeec5400, 0x3fa6314483c7a726, 0x3fdd0ff8b8d40ccd],
    [0x3fb48de40dda422e, 0x3f42a9b3601f5e00, 0x3fa51a7884828dba, 0x3fe0fc8d2276ce96],
    [0x3fa2a22211a17dd8, 0x3f26f7cdd2137400, 0x3f931b9932645a00, 0x3fddaf4e97c42cff],
    [0x3f5ed4b143048d80, 0x3f2e7d0246970000, 0x3f400da3dad61a00, 0x3fdff13fe97497a0],
    [0x3f61864f19a0ca20, 0x3f3795d973f3d600, 0x3f42fc8ab5dcdb80, 0x3fe0064e5177d635],
    [0x3f4d367ab3967840, 0x3f1f608c21007a00, 0x3f2d72fc61999600, 0x3fdff1984c0a2e23],
    [0x3f892dc3695df010, 0x3f31c81003e9b280, 0x3f71815c54703d90, 0x3fdf82edbc79df2e],
    [0x3f89ae539125e0f0, 0x3f3c3b8d8527e800, 0x3f707d71597c57d8, 0x3fe029c21a3c34dc],
    [0x3f766b4c951a6480, 0x3f22547533881500, 0x3f5ccb7bef70dd80, 0x3fdfa6de01fd8aae],
    [0x3fb349d07df865ae, 0x3f36900afeec5400, 0x3fa6314483c7a726, 0x3fdd0ff8b8d40ccd],
    [0x3fb48de40dda4246, 0x3f42a9b36028c280, 0x3fa51a7884828ed8, 0x3fe0fc8d2276ce93],
    [0x3fa2a23eb921a8b8, 0x3f2781a2cf2a9100, 0x3f931c2993ef2290, 0x3fddaf4b02d427a3],
    [0x3f25f9896d393800, 0x3f25f9896d393800, 0x3f3e970d1b136200, 0x3fe0000000000000],
    [0x3f307b2711eaf400, 0x3f307b2711eaf400, 0x3f46f149d44ea700, 0x3fdffffffffffffe],
    [0x3f166ec3b3934800, 0x3f166eb296876e00, 0x3f2f04fd7522dc00, 0x3fdffffd74d6bd7f],
    [0x3f25f9896d393800, 0x3f25f9896d393800, 0x3f3e970d1b136200, 0x3fe0000000000000],
    [0x3f307b2711eaf400, 0x3f307b2711eaf400, 0x3f46f149d44ea700, 0x3fdffffffffffffe],
    [0x3f166ec3b3934800, 0x3f166eb296876e00, 0x3f2f04fd7522dc00, 0x3fdffffd74d6bd7f],
    [0x3f25f9896d393800, 0x3f25f9896d393800, 0x3f3e970d1b136200, 0x3fe0000000000000],
    [0x3f307b2711eaf400, 0x3f307b2711eaf400, 0x3f46f149d44ea700, 0x3fdffffffffffffe],
    [0x3f166ec3b3934800, 0x3f166eb296876e00, 0x3f2f04fd7522dc00, 0x3fdffffd74d6bd7f],
    [0x3f25f9896d393800, 0x3f25f9896d393800, 0x3f3e970d1b136200, 0x3fe0000000000000],
    [0x3f307b2711eb0000, 0x3f307b2711eb0000, 0x3f46f149d44ecc80, 0x3fdffffffffffffb],
    [0x3f169e4d075b4000, 0x3f169bd5923a9a00, 0x3f2f422432f2c800, 0x3fdffffa7c4180ff],
    [0x3f25f9896d393800, 0x3f25f9896d393800, 0x3f3e970d1b136200, 0x3fe0000000000000],
    [0x3f307b2711eb0000, 0x3f307b2711eb0000, 0x3f46f149d44ecc80, 0x3fdffffffffffffb],
    [0x3f169e4d075b4000, 0x3f169bd5923a9a00, 0x3f2f422432f2c800, 0x3fdffffa7c4180ff],
    [0x3f25f9896d393800, 0x3f25f9896d393800, 0x3f3e970d1b136200, 0x3fe0000000000000],
    [0x3f307b2711eb0000, 0x3f307b2711eb0000, 0x3f46f149d44ecc80, 0x3fdffffffffffffb],
    [0x3f169e4d075b4000, 0x3f169bd5923a9a00, 0x3f2f422432f2c800, 0x3fdffffa7c4180ff],
    [0x3f4b3df8f08f0680, 0x3f32f6364e6ff780, 0x3f34a5addd3e4700, 0x3fdffb71f4e15ff7],
    [0x3f51493bbd1dee20, 0x3f3cf7bb15f0dc00, 0x3f3f64007e969d80, 0x3fe002a454812545],
    [0x3f3b0cf75246e200, 0x3f236c084af90d00, 0x3f23d9077450fd00, 0x3fdff9ad989a8e0c],
    [0x3f68ef3229e956b0, 0x3f34c83c19619080, 0x3f4c2c72473c0980, 0x3fdfe7550ef79cb9],
    [0x3f6c00d1fc3f5630, 0x3f401dec57aa0680, 0x3f4fd27b65980d00, 0x3fe00a3865ccf6bc],
    [0x3f5781fcf7165c60, 0x3f254323c3337f00, 0x3f398138bc0af000, 0x3fdfe8d03a96b10a],
    [0x3f9071d93a504c2c, 0x3f37f4bc53a11880, 0x3f78e29098e18240, 0x3fdf5f6ad0c561a7],
    [0x3f90f4faa8d6323e, 0x3f43070f33c9fb00, 0x3f77b348c1666820, 0x3fe0366e7c394a86],
    [0x3f7da338aa0e8850, 0x3f2883725465a600, 0x3f64ba22ce3d50a0, 0x3fdf8a58a7a082e6],
    [0x3f4b3df8f08f0680, 0x3f32f6364e6ff780, 0x3f34a5addd3e4700, 0x3fdffb71f4e15ff7],
    [0x3f51493bbd1e0820, 0x3f3cf7bb15f20800, 0x3f3f64007e98c880, 0x3fe002a454812538],
    [0x3f3b22427a820c00, 0x3f23a4f6e049b000, 0x3f243fa428b03300, 0x3fdff9a845d07f42],
    [0x3f68ef3229e956b0, 0x3f34c83c19619080, 0x3f4c2c72473c0980, 0x3fdfe7550ef79cb9],
    [0x3f6c00d1fc3f6330, 0x3f401dec57ab6280, 0x3f4fd27b65992280, 0x3fe00a3865ccf6af],
    [0x3f57874fc12526e0, 0x3f258ce261e41700, 0x3f39b487163a8b00, 0x3fdfe8cae7cca240],
    [0x3f9071d93a504c2c, 0x3f37f4bc53a11880, 0x3f78e29098e18240, 0x3fdf5f6ad0c561a7],
    [0x3f90f4faa8d633de, 0x3f43070f33cee300, 0x3f77b348c1668ad0, 0x3fe0366e7c394a79],
    [0x3f7da48d5c923af0, 0x3f28f0d58bff3500, 0x3f64c08c99834400, 0x3fdf8a5354d6741b],
    [0x3f752207cf566fd0, 0x3f3fc24d6ca3dc00, 0x3f5af528c7ccc020, 0x3fdfd5b75b6167c0],
    [0x3f77a58355749460, 0x3f48acf9a6fecb00, 0x3f5dae1eab09ede0, 0x3fe01154fcadd498],
    [0x3f63f7af11e144a0, 0x3f306b8e14873900, 0x3f4878ebfa7730c0, 0x3fdfd8b3ae35f700],
    [0x3fa0c4dc87cba48c, 0x3f42eb0213dcb180, 0x3f8f170818b05898, 0x3fdebe5b6cce0e77],
    [0x3fa194d8dafef23d, 0x3f4e46dbd2511080, 0x3f8de4d9a83f14c4, 0x3fe06e84236d7e8d],
    [0x3f8f00afae1df13c, 0x3f33a98a4e7bb200, 0x3f7a6d0173e0a920, 0x3fdf0a76a9a7498d],
    [0x3fc17ed40009ad6e, 0x3f48c7e189a11d40, 0x3fb9d3ceb49ed8ee, 0x3fdbf42eb3fc38a8],
    [0x3fc4e272f23dd33e, 0x3f54c63c4d4723a0, 0x3fbc1eea48931cc5, 0x3fe1a8026af3d98d],
    [0x3fb2ef90062276c8, 0x3f3a4c51549c9a00, 0x3faa0c7384a3b8ed, 0x3fdb567e950c5b68],
    [0x3f752207cf566fd0, 0x3f3fc24d6ca3dc00, 0x3f5af528c7ccc020, 0x3fdfd5b75b6167c0],
    [0x3f77a5835574c540, 0x3f48acf9a709df00, 0x3f5dae1eab0d8220, 0x3fe01154fcadd436],
    [0x3f63fc4c65bee7a0, 0x3f30ae9646d61600, 0x3f48a2b704455e40, 0x3fdfd8aa738e3bba],
    [0x3fa0c4dc87cba48c, 0x3f42eb0213dcb180, 0x3f8f170818b05898, 0x3fdebe5b6cce0e77],
    [0x3fa194d8dafef859, 0x3f4e46dbd2860100, 0x3f8de4d9a83f874c, 0x3fe06e84236d7e2c],
    [0x3f8f01d7031559fc, 0x3f3415e3837db800, 0x3f7a723ad51a6ed0, 0x3fdf0a6d6eff8e47],
    [0x3fc17ed40009ad6e, 0x3f48c7e189a11d40, 0x3fb9d3ceb49ed8ee, 0x3fdbf42eb3fc38a8],
    [0x3fc4e272f23dd4c5, 0x3f54c63c4e57c820, 0x3fbc1eea48932b16, 0x3fe1a8026af3d92b],
    [0x3fb2efb4f0c163e0, 0x3f3b29b90a2b4680, 0x3faa0d1ab0caf1a3, 0x3fdb56755a64a022],
    [0x3f337f1d94478c00, 0x3f337f1d94478c00, 0x3f47b6ad9ed95a00, 0x3fe0000000000000],
    [0x3f3d3eac5e6c0500, 0x3f3d3eac5e6c0500, 0x3f51c9023723ef40, 0x3fdfffffffffffd3],
    [0x3f24102859e29900, 0x3f240fdb8bf11900, 0x3f383169b84e9400, 0x3fdffffa38334f7f],
    [0x3f337f1d94478c00, 0x3f337f1d94478c00, 0x3f47b6ad9ed95a00, 0x3fe0000000000000],
    [0x3f3d3eac5e6c0500, 0x3f3d3eac5e6c0500, 0x3f51c9023723ef40, 0x3fdfffffffffffd3],
    [0x3f24102859e29900, 0x3f240fdb8bf11900, 0x3f383169b84e9400, 0x3fdffffa38334f7f],
    [0x3f337f1d94478c00, 0x3f337f1d94478c00, 0x3f47b6ad9ed95a00, 0x3fe0000000000000],
    [0x3f3d3eac5e6c0500, 0x3f3d3eac5e6c0500, 0x3f51c9023723ef40, 0x3fdfffffffffffd3],
    [0x3f24102859e29900, 0x3f240fdb8bf11900, 0x3f383169b84e9400, 0x3fdffffa38334f7f],
    [0x3f337f1d94478c00, 0x3f337f1d94478c00, 0x3f47b6ad9ed95a00, 0x3fe0000000000000],
    [0x3f3d3eac5e6cd500, 0x3f3d3eac5e6cd500, 0x3f51c9023724f700, 0x3fdfffffffffff9f],
    [0x3f2443867b9ba700, 0x3f2441f465110a00, 0x3f386e0089ce4f00, 0x3fdffff3cc6f185e],
    [0x3f337f1d94478c00, 0x3f337f1d94478c00, 0x3f47b6ad9ed95a00, 0x3fe0000000000000],
    [0x3f3d3eac5e6cd500, 0x3f3d3eac5e6cd500, 0x3f51c9023724f700, 0x3fdfffffffffff9f],
    [0x3f2443867b9ba700, 0x3f2441f465110a00, 0x3f386e0089ce4f00, 0x3fdffff3cc6f185e],
    [0x3f337f1d94478c00, 0x3f337f1d94478c00, 0x3f47b6ad9ed95a00, 0x3fe0000000000000],
    [0x3f3d3eac5e6cd500, 0x3f3d3eac5e6cd500, 0x3f51c9023724f700, 0x3fdfffffffffff9f],
    [0x3f2443867b9ba700, 0x3f2441f465110a00, 0x3f386e0089ce4f00, 0x3fdffff3cc6f185e],
    [0x3f58a951b9aa4b20, 0x3f40b8d4acc8cec0, 0x3f42ee8e79623340, 0x3fdff7b244188e63],
    [0x3f5f3b9f15e67380, 0x3f498edf74abc7c0, 0x3f4bac4b648ed2c0, 0x3fe004ce45b3ab9f],
    [0x3f48a0c1966d4e00, 0x3f3157e904ac2880, 0x3f328367d2ae7880, 0x3fdff485341a2826],
    [0x3f766e3f2a4c2ae8, 0x3f425eb6ad4c7840, 0x3f5d798de4d6c700, 0x3fdfd4148e313895],
    [0x3f794e0fbd36ddc0, 0x3f4c842f3ad03d00, 0x3f606af0b33f3aa0, 0x3fe01260dd94bdc1],
    [0x3f65526523931e00, 0x3f33146d99571100, 0x3f4afdaae53d72c0, 0x3fdfd6227c4481b1],
    [0x3f9b802c3196756a, 0x3f453fabcc268480, 0x3f8882c7e5d934b8, 0x3fdefe45251578bd],
    [0x3f9d0e70467bd35c, 0x3f50e67f6ad57800, 0x3f87eed25391f574, 0x3fe05a883ae033bf],
    [0x3f8976e0aa9d1ab4, 0x3f362ee9bb47e280, 0x3f750ddbb503b168, 0x3fdf36a85138a4e4],
    [0x3f58a951b9aa4b20, 0x3f40b8d4acc8cec0, 0x3f42ee8e79623340, 0x3fdff7b244188e63],
    [0x3f5f3b9f15e80b00, 0x3f498edf74b50740, 0x3f4bac4b649d1dc0, 0x3fe004ce45b3aad4],
    [0x3f48b752f22d7480, 0x3f3196352b9ba680, 0x3f32e74c59b50480, 0x3fdff479eb6c4814],
    [0x3f766e3f2a4c2ae8, 0x3f425eb6ad4c7840, 0x3f5d798de4d6c700, 0x3fdfd4148e313895],
    [0x3f794e0fbd3743a0, 0x3f4c842f3ae5fd80, 0x3f606af0b342cd60, 0x3fe01260dd94bcf6],
    [0x3f6558097a8327a0, 0x3f3365740ffbb680, 0x3f4b2f9d28c0b8c0, 0x3fdfd6173396a19e],
    [0x3f9b802c3196756a, 0x3f453fabcc268480, 0x3f8882c7e5d934b8, 0x3fdefe45251578bd],
    [0x3f9d0e70467becd4, 0x3f50e67f6afd6a40, 0x3f87eed25392da24, 0x3fe05a883ae032f3],
    [0x3f897849c0591d1c, 0x3f36a7b7942f0480, 0x3f751419fd741a28, 0x3fdf369d088ac4d1],
    [0x3f8260cd8a250ec0, 0x3f4bbbc1ca3ff7c0, 0x3f6b440952367770, 0x3fdfb7d1c1c13fad],
    [0x3f84b9abc0cb902c, 0x3f5590359377e200, 0x3f6dec124ac750f0, 0x3fe01e1c6f329ea6],
    [0x3f71906ef05b90f8, 0x3f3d38ae30706280, 0x3f59187f4b64b860, 0x3fdfbb4badb11844],
    [0x3fa9e6b6a5f9444e, 0x3f509370e3842760, 0x3f9bdf5bb8b3b4a4, 0x3fde2e6dc0dfab6d],
    [0x3fac1b727cc7e8fd, 0x3f5a8f6246845240, 0x3f9bd6288bd09a5e, 0x3fe0a8fd88dd5960],
    [0x3f98d6e11873b268, 0x3f41b03631921c40, 0x3f88c138aa7760a8, 0x3fde78e52f775e38],
    [0x3fc52cd21b484e26, 0x3f55d00ecdf759a0, 0x3fc112149170a0e3, 0x3fdc2ddb69f825ae],
    [0x3fcaabcf0b0bcaf6, 0x3f62511707cfe730, 0x3fc4069f64091131, 0x3fe1e94acfe557ec],
    [0x3fb7cdad46ddb3f5, 0x3f4827ebc5e57780, 0x3fb27a3ac6d5af18, 0x3fda3965e87fa345],
    [0x3f8260cd8a250ec0, 0x3f4bbbc1ca3ff7c0, 0x3f6b440952367770, 0x3fdfb7d1c1c13fad],
    [0x3f84b9abc0ccf01c, 0x3f55903593c979c0, 0x3f6dec124add5670, 0x3fe01e1c6f329927],
    [0x3f71953683c8fd68, 0x3f3dc81960ae6900, 0x3f594058239a2fa0, 0x3fdfbb388f636292],
    [0x3fa9e6b6a5f9444e, 0x3f509370e3842760, 0x3f9bdf5bb8b3b4a4, 0x3fde2e6dc0dfab6d],
    [0x3fac1b727cc840f9, 0x3f5a8f62480e7c80, 0x3f9bd6288bd35b0e, 0x3fe0a8fd88dd53e1],
    [0x3f98d812fd4f0d84, 0x3f42247ace538b40, 0x3f88c633c57e0f90, 0x3fde78d21129a886],
    [0x3fc52cd21b484e26, 0x3f55d00ecdf759a0, 0x3fc112149170a0e3, 0x3fdc2ddb69f825ae],
    [0x3fcaabcf0b0be0f4, 0x3f6251170fc28390, 0x3fc4069f64096947, 0x3fe1e94acfe5526c],
    [0x3fb7cdf9c0148abc, 0x3f49158994fddf80, 0x3fb27ada2a3684f5, 0x3fda3952ca31ed93],
];

#[rustfmt::skip]
const MLC_BITS: [[u64; 5]; 27] = [
    [0x3f4a43d1f715f9a0, 0x3f4a43c7525f9680, 0x3f518284e1949800, 0x3f518284e1949820, 0x0000000000000000],
    [0x3f4a43d1f715f9a0, 0x3f4a43c7525f9680, 0x3f518284e1949800, 0x3f518284e1949820, 0x0000000000000000],
    [0x3f4a43d1f715f9a0, 0x3f4a43c7525f9680, 0x3f518284e1949800, 0x3f518284e1949820, 0x0000000000000000],
    [0x3f733af542d9ac84, 0x3f6aa5f3f19800d0, 0x3f7b2cc1b1429c78, 0x3f761c1f2d2fdc00, 0x0000000000000000],
    [0x3f92b0d3d167ea85, 0x3f8669d148e85280, 0x3f9b65fc8acf4247, 0x3f94747f8ef13bbb, 0x0000000000000000],
    [0x3fb2b6bf4cc885f6, 0x3fa57cbcf15a8444, 0x3fb9f50a1c5dcc4b, 0x3fb3b38daa241f2e, 0x0000000000000000],
    [0x3f9b4337f2c6b648, 0x3f904c143a60e900, 0x3fa3ca7c6f6a530e, 0x3f9db473ab4edfb0, 0x0000000000000000],
    [0x3fbc118a37e62836, 0x3fb0952da06ea84e, 0x3fc2572a6684113c, 0x3fbd9ece4388ff4f, 0x0000000000000000],
    [0x3fc78af5fee835fc, 0x3fc136816ad8bf01, 0x3fcc4a0768a9ce77, 0x3fccb25740c078e2, 0x0000000000000000],
    [0x3f53fd44b551a670, 0x3f53fd2fcc518d70, 0x3f5aa6ea65bbf390, 0x3f5aa6ea65bbf3f0, 0x0000000000000000],
    [0x3f53fd44b551a670, 0x3f53fd2fcc518d70, 0x3f5aa6ea65bbf390, 0x3f5aa6ea65bbf3f0, 0x0000000000000000],
    [0x3f53fd44b551a670, 0x3f53fd2fcc518d70, 0x3f5aa6ea65bbf390, 0x3f5aa6ea65bbf3f0, 0x0000000000000000],
    [0x3f835e0a000e95dc, 0x3f79f13e0cba911c, 0x3f8b7c7d9863a39c, 0x3f85fe632114dc64, 0x0000000000000000],
    [0x3fa33ebaa29ae780, 0x3f96f30ec19b01d4, 0x3fab993a23e820aa, 0x3fa4dd48a28ae600, 0x0000000000000000],
    [0x3fbed2928af691c5, 0x3fb28c32b1598009, 0x3fc3cbf4e20faae6, 0x3fc0647775d62d9e, 0x0000000000000000],
    [0x3faaba81e1546625, 0x3fa00dbef91c21c8, 0x3fb2ca4bad3db769, 0x3face9ed781afb8e, 0x0000000000000000],
    [0x3fc3a734aec1c434, 0x3fb92717809f1c14, 0x3fc80b4453b32890, 0x3fc5a447bbcf513a, 0x0000000000000000],
    [0x3fcb236e8c55f61c, 0x3fc5cdf3e589cf54, 0x3fd0db5ab764ad74, 0x3fd18d20e47c1a74, 0x0000000000000000],
    [0x3f5d39c265071ec0, 0x3f5d397a9fb28920, 0x3f637ba71502b1b0, 0x3f637ba71502b388, 0x0000000000000000],
    [0x3f5d39c265071ec0, 0x3f5d397a9fb28920, 0x3f637ba71502b1b0, 0x3f637ba71502b388, 0x0000000000000000],
    [0x3f5d39c265071ec0, 0x3f5d397a9fb28920, 0x3f637ba71502b1b0, 0x3f637ba71502b388, 0x0000000000000000],
    [0x3f8cc95e5b25f024, 0x3f834920cda91934, 0x3f9454ca1cbcb98f, 0x3f90547bec40577c, 0x0000000000000000],
    [0x3faad64a6bcc062f, 0x3fa03b76e8fcc698, 0x3fb2d23b16cdf8a4, 0x3fad1bfeb5cb434a, 0x0000000000000000],
    [0x3fc21cb231f68d09, 0x3fb6c7af0de8ae7e, 0x3fc69125abbca18b, 0x3fc3b6437d018b78, 0x0000000000000000],
    [0x3fb1dfca108d51d3, 0x3fa5e32414e66124, 0x3fb883fe1e3dca26, 0x3fb3649e40efdd65, 0x0000000000000000],
    [0x3fc57c27db9b6570, 0x3fbd2668972fbf92, 0x3fc9f9ddeb528a36, 0x3fc88f315ed9bf35, 0x0000000000000000],
    [0x3fd0353489b47378, 0x3fc9784970a6b5a1, 0x3fd3568c2432b2e6, 0x3fd3c8be639bf9c4, 0x0000000000000000],
];

#[test]
fn tlc_error_model_is_bit_identical() {
    let rows = tlc_rows();
    assert_eq!(rows.len(), TLC_BITS.len());
    for (i, (got, want)) in rows.iter().zip(&TLC_BITS).enumerate() {
        assert_eq!(
            got, want,
            "row {i}: [default, optimal, at, ones] bits moved"
        );
    }
}

#[test]
fn mlc_error_model_is_bit_identical() {
    let rows = mlc_rows();
    assert_eq!(rows.len(), MLC_BITS.len());
    for (i, (got, want)) in rows.iter().zip(&MLC_BITS).enumerate() {
        assert_eq!(got, want, "row {i}: [qlc p0..p3, slc] bits moved");
    }
}
