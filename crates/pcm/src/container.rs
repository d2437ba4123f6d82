//! Sealed aluminum wax enclosures.
//!
//! The paper packages wax in sealed aluminum boxes with ~10 % airspace for
//! expansion (§3: "90 ml (70 grams) of paraffin wax ... an extra 10 ml of
//! airspace"), placed downwind of the CPU heat sinks. §6 notes that melting
//! speed is "sufficiently improved by placing the paraffin in multiple
//! containers to maximize surface area" — subdividing a wax budget into more
//! boxes increases the air-contact area and hence the melt rate, which the
//! [`ContainerBank`] geometry captures.

use crate::material::PcmMaterial;
use tts_units::{Grams, Liters, Meters, SquareMeters, WattsPerKelvin, WattsPerSquareMeterKelvin};

/// Fraction of the container volume filled with wax; the rest is expansion
/// headspace (the paper leaves 10 mL of air per 90 mL of wax).
pub const DEFAULT_FILL_FRACTION: f64 = 0.9;

/// Thermal conductance per square meter of a thin aluminum wall
/// (k ≈ 205 W/(m·K), 1.5 mm wall → ~1.4e5 W/(m²·K); effectively transparent
/// compared to the air-side film, but modeled for completeness).
pub const ALUMINUM_WALL_CONDUCTANCE_W_M2K: f64 = 205.0 / 0.0015;

/// Thermal conductivity of paraffin wax, W/(m·K).
///
/// Paraffin conducts poorly; the internal (wax-side) conductance of a box
/// is `k / (thickness/2)` — the heat must diffuse from the surface to the
/// slab's mid-plane — so *thin* boxes melt much faster than thick ones.
/// This is the paper's §6 point: melting speed is "sufficiently improved by
/// placing the paraffin in multiple containers to maximize surface area"
/// instead of embedding expensive metal mesh.
pub const WAX_THERMAL_CONDUCTIVITY_W_MK: f64 = 0.21;

/// Enhancement factor for buoyancy-driven convection in the molten layer
/// (natural convection stirs the melt, raising effective conductivity).
pub const MELT_CONVECTION_ENHANCEMENT: f64 = 1.6;

/// A rectangular sealed aluminum box of wax.
#[derive(Debug, Clone, PartialEq)]
pub struct WaxContainer {
    length: Meters,
    width: Meters,
    height: Meters,
    fill_fraction: f64,
    elevated: bool,
}

tts_units::derive_json! { struct WaxContainer { length, width, height, fill_fraction, elevated } }

impl WaxContainer {
    /// A box with the given outer dimensions, filled to
    /// [`DEFAULT_FILL_FRACTION`] with wax.
    pub fn new(length: Meters, width: Meters, height: Meters) -> Self {
        Self::with_fill(length, width, height, DEFAULT_FILL_FRACTION)
    }

    /// A box with an explicit fill fraction in `(0, 1]`.
    ///
    /// # Panics
    /// Panics if `fill_fraction` is not in `(0, 1]` or a dimension is
    /// non-positive — containers are construction-time configuration, not
    /// runtime data, so invalid geometry is a programming error.
    pub fn with_fill(length: Meters, width: Meters, height: Meters, fill_fraction: f64) -> Self {
        assert!(
            fill_fraction > 0.0 && fill_fraction <= 1.0,
            "fill fraction {fill_fraction} outside (0, 1]"
        );
        assert!(
            length.value() > 0.0 && width.value() > 0.0 && height.value() > 0.0,
            "container dimensions must be positive"
        );
        Self {
            length,
            width,
            height,
            fill_fraction,
            elevated: false,
        }
    }

    /// Marks the container as *elevated*: mounted on standoffs or
    /// vertically (like the Open Compute airflow inserts), so both large
    /// faces see moving air instead of one resting on the chassis floor.
    pub fn elevated(mut self) -> Self {
        self.elevated = true;
        self
    }

    /// The validation-experiment box: 100 mL holding 90 mL (70 g) of wax.
    /// Modeled as 10 cm × 10 cm × 1 cm.
    pub fn validation_box() -> Self {
        Self::with_fill(Meters::new(0.10), Meters::new(0.10), Meters::new(0.01), 0.9)
    }

    /// Constructs a box sized to hold `wax_volume` of wax in a server bay of
    /// the given footprint, solving for the height (including headspace).
    pub fn for_wax_volume(wax_volume: Liters, length: Meters, width: Meters) -> Self {
        let total_m3 = wax_volume.cubic_meters().value() / DEFAULT_FILL_FRACTION;
        let height = total_m3 / (length.value() * width.value());
        Self::new(length, width, Meters::new(height))
    }

    /// Outer volume of the box.
    pub fn outer_volume(&self) -> Liters {
        Liters::new(self.length.value() * self.width.value() * self.height.value() * 1e3)
    }

    /// Volume of wax inside.
    pub fn wax_volume(&self) -> Liters {
        self.outer_volume() * self.fill_fraction
    }

    /// Mass of wax for a given material.
    pub fn wax_mass(&self, material: &PcmMaterial) -> Grams {
        self.wax_volume().mass_at(material.density())
    }

    /// Total exterior surface area (all six faces).
    pub fn surface_area(&self) -> SquareMeters {
        let (l, w, h) = (self.length.value(), self.width.value(), self.height.value());
        SquareMeters::new(2.0 * (l * w + l * h + w * h))
    }

    /// Surface area exposed to the moving air stream.
    ///
    /// The paper leaves space "between the boxes and edges of the server
    /// ... maximizing surface area in contact with moving air"; we count
    /// the top face and the two faces parallel to the flow (air flows
    /// along `length`). The bottom face rests on the chassis floor and the
    /// upstream/downstream end faces sit in recirculation zones.
    pub fn exposed_area(&self) -> SquareMeters {
        let (l, w, h) = (self.length.value(), self.width.value(), self.height.value());
        let large_faces = if self.elevated { 2.0 } else { 1.0 };
        SquareMeters::new(large_faces * l * w + 2.0 * l * h)
    }

    /// Effective wax-side conductance per m²: conduction over the slab
    /// half-thickness, enhanced by melt convection.
    pub fn wax_internal_conductance_per_m2(&self) -> f64 {
        let half_thickness = (self.height.value() / 2.0).max(1e-4);
        WAX_THERMAL_CONDUCTIVITY_W_MK * MELT_CONVECTION_ENHANCEMENT / half_thickness
    }

    /// Series air-to-wax conductance for a given air-side film coefficient:
    /// convection film → aluminum wall → wax bulk, each over the exposed
    /// area.
    pub fn air_to_wax_conductance(&self, film: WattsPerSquareMeterKelvin) -> WattsPerKelvin {
        let area = self.exposed_area().value();
        let g_film = film.value() * area;
        let g_wall = ALUMINUM_WALL_CONDUCTANCE_W_M2K * area;
        let g_wax = self.wax_internal_conductance_per_m2() * area;
        let g = 1.0 / (1.0 / g_film + 1.0 / g_wall + 1.0 / g_wax);
        WattsPerKelvin::new(g)
    }
}

/// A set of identical containers deployed in one server.
#[derive(Debug, Clone, PartialEq)]
pub struct ContainerBank {
    container: WaxContainer,
    count: usize,
}

tts_units::derive_json! { struct ContainerBank { container, count } }

impl ContainerBank {
    /// `count` copies of `container`.
    ///
    /// # Panics
    /// Panics if `count` is zero.
    pub fn new(container: WaxContainer, count: usize) -> Self {
        assert!(count > 0, "a container bank needs at least one container");
        Self { container, count }
    }

    /// Splits a total wax budget into `count` equal boxes of the given
    /// footprint.
    pub fn subdivide(total_wax: Liters, count: usize, length: Meters, width: Meters) -> Self {
        assert!(count > 0, "a container bank needs at least one container");
        let per_box = total_wax / count as f64;
        Self::new(WaxContainer::for_wax_volume(per_box, length, width), count)
    }

    /// Like [`Self::subdivide`], with every box [`WaxContainer::elevated`].
    pub fn subdivide_elevated(
        total_wax: Liters,
        count: usize,
        length: Meters,
        width: Meters,
    ) -> Self {
        assert!(count > 0, "a container bank needs at least one container");
        let per_box = total_wax / count as f64;
        Self::new(
            WaxContainer::for_wax_volume(per_box, length, width).elevated(),
            count,
        )
    }

    /// The individual container.
    pub fn container(&self) -> &WaxContainer {
        &self.container
    }

    /// Number of containers.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Total wax volume across the bank.
    pub fn total_wax_volume(&self) -> Liters {
        self.container.wax_volume() * self.count as f64
    }

    /// Total wax mass across the bank.
    pub fn total_wax_mass(&self, material: &PcmMaterial) -> Grams {
        self.container.wax_mass(material) * self.count as f64
    }

    /// Total air-exposed area across the bank.
    pub fn total_exposed_area(&self) -> SquareMeters {
        self.container.exposed_area() * self.count as f64
    }

    /// Total air-to-wax conductance across the bank.
    pub fn total_conductance(&self, film: WattsPerSquareMeterKelvin) -> WattsPerKelvin {
        self.container.air_to_wax_conductance(film) * self.count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tts_rng::prop::prelude::*;
    use tts_units::Celsius;

    #[test]
    fn validation_box_holds_90ml() {
        let b = WaxContainer::validation_box();
        assert!((b.outer_volume().value() - 0.1).abs() < 1e-9);
        assert!((b.wax_volume().value() - 0.09).abs() < 1e-9);
    }

    #[test]
    fn validation_box_wax_mass_is_about_70g() {
        // Paper: 90 mL ≈ 70 g. Our commercial paraffin density is 0.80 g/mL
        // → 72 g; within the paper's rounding.
        let b = WaxContainer::validation_box();
        let m = b.wax_mass(&PcmMaterial::validation_wax());
        assert!((m.value() - 72.0).abs() < 3.0, "{m}");
    }

    #[test]
    fn for_wax_volume_round_trips() {
        let b =
            WaxContainer::for_wax_volume(Liters::new(1.2), Meters::new(0.30), Meters::new(0.20));
        assert!((b.wax_volume().value() - 1.2).abs() < 1e-9);
    }

    #[test]
    fn subdividing_increases_surface_area() {
        // §6: multiple containers instead of metal mesh. Same 4 L of wax in
        // 4 boxes exposes more area than 1 box of the same footprint.
        let one =
            ContainerBank::subdivide(Liters::new(4.0), 1, Meters::new(0.25), Meters::new(0.20));
        let four =
            ContainerBank::subdivide(Liters::new(4.0), 4, Meters::new(0.25), Meters::new(0.20));
        assert!((four.total_wax_volume().value() - one.total_wax_volume().value()).abs() < 1e-9);
        assert!(
            four.total_exposed_area().value() > one.total_exposed_area().value(),
            "4 boxes must expose more area"
        );
    }

    #[test]
    fn conductance_is_dominated_by_film_and_wax_not_wall() {
        let b = WaxContainer::validation_box();
        let g = b.air_to_wax_conductance(WattsPerSquareMeterKelvin::new(25.0));
        // Upper bound: film+wax in series, no wall.
        let area = b.exposed_area().value();
        let g_no_wall =
            1.0 / (1.0 / (25.0 * area) + 1.0 / (b.wax_internal_conductance_per_m2() * area));
        assert!(g.value() < g_no_wall);
        assert!(
            g.value() > 0.99 * g_no_wall,
            "aluminum wall should be nearly transparent"
        );
    }

    #[test]
    fn thinner_boxes_have_higher_internal_conductance() {
        // Same footprint, half the height → roughly double the wax-side
        // conductance per m² (the §6 multiple-containers argument).
        let thick = WaxContainer::new(Meters::new(0.3), Meters::new(0.2), Meters::new(0.04));
        let thin = WaxContainer::new(Meters::new(0.3), Meters::new(0.2), Meters::new(0.02));
        assert!(
            thin.wax_internal_conductance_per_m2() > 1.9 * thick.wax_internal_conductance_per_m2()
        );
    }

    #[test]
    #[should_panic(expected = "fill fraction")]
    fn zero_fill_fraction_panics() {
        WaxContainer::with_fill(Meters::new(0.1), Meters::new(0.1), Meters::new(0.1), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one container")]
    fn empty_bank_panics() {
        ContainerBank::new(WaxContainer::validation_box(), 0);
    }

    proptest! {
        #[test]
        fn exposed_area_is_subset_of_surface(
            l in 0.01f64..1.0, w in 0.01f64..1.0, h in 0.005f64..0.2
        ) {
            let b = WaxContainer::new(Meters::new(l), Meters::new(w), Meters::new(h));
            prop_assert!(b.exposed_area().value() <= b.surface_area().value() + 1e-12);
        }

        #[test]
        fn bank_totals_scale_linearly(count in 1usize..10) {
            let b = ContainerBank::new(WaxContainer::validation_box(), count);
            let single = WaxContainer::validation_box();
            let mat = PcmMaterial::commercial_paraffin(Celsius::new(40.0));
            prop_assert!(
                (b.total_wax_mass(&mat).value()
                    - single.wax_mass(&mat).value() * count as f64).abs() < 1e-9
            );
        }

        #[test]
        fn subdivision_conserves_wax(total in 0.5f64..8.0, n in 1usize..8) {
            let bank = ContainerBank::subdivide(
                Liters::new(total), n, Meters::new(0.25), Meters::new(0.2));
            prop_assert!((bank.total_wax_volume().value() - total).abs() < 1e-9);
        }
    }
}
