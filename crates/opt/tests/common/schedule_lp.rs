// Planning LPs of the `schedule` experiment's shape, shared by the
// integration tests and the simplex's unit tests through `include!`. The
// including scope brings `Lp`, `HorizonModel`, `SlotForecast`,
// `BacklogItem` and `DELAY_CLASSES_MIN` into scope.

/// A plan over 24 h + 3 h of `slot_min`-minute slots × `tranches` delay
/// classes: diurnal load, peak/off-peak tariff, PCM mid-melt. Every class
/// carries `overdue_kw_slots` of backlog due in slot 0, and the cooling
/// plant removes at most `cooling_cap_kw`.
fn schedule_lp(tranches: usize, slot_min: f64, overdue_kw_slots: f64, cooling_cap_kw: f64) -> Lp {
    let dt_h = slot_min / 60.0;
    let slots = (27.0 / dt_h).round() as usize;
    let forecasts = (0..slots)
        .map(|k| {
            let hour = (k as f64 * dt_h) % 24.0;
            let util = 0.5 + 0.3 * (core::f64::consts::TAU * (hour / 24.0 - 0.25)).sin();
            let it_kw = 161.3 * util;
            SlotForecast {
                firm_kw: 0.75 * it_kw,
                arrivals_kw: vec![0.25 * it_kw / tranches as f64; tranches],
                rate_usd_per_kwh: if (7.0..19.0).contains(&hour) {
                    0.13
                } else {
                    0.08
                },
                charge_ub_kw: 12.0,
                discharge_ub_kw: 8.0,
                cooling_cap_kw,
            }
        })
        .collect();
    let backlog_item = BacklogItem {
        kw_slots: overdue_kw_slots,
        deadline_slot: 0,
    };
    HorizonModel {
        slots: forecasts,
        tranches,
        dt_h,
        deadline_slots: DELAY_CLASSES_MIN[..tranches]
            .iter()
            .map(|&d| HorizonModel::window_slots(d, slot_min))
            .collect(),
        stored_kwh: 22.0,
        capacity_kwh: 44.0,
        cop: 4.0,
        backlog: (0..tranches)
            .map(|_| {
                if overdue_kw_slots > 0.0 {
                    vec![backlog_item]
                } else {
                    Vec::new()
                }
            })
            .collect(),
    }
    .build()
}

/// The `schedule` experiment's default plan shape: 108 slots (24 h + 3 h
/// of 15-minute slots) × 4 delay classes, no backlog, a 170 kW plant.
fn default_schedule_lp() -> Lp {
    schedule_lp(4, 15.0, 0.0, 170.0)
}
