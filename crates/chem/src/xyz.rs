//! XYZ-format molecular geometry I/O.
//!
//! The standard interchange format: first line atom count, second line a
//! comment, then `symbol x y z` per atom in Ångström. Lets users run the
//! code on their own structures (the paper's artifact distributes its
//! graphene systems as coordinate files).

use crate::element::Element;
use crate::molecule::{Atom, Molecule};
use crate::ANGSTROM;

/// Parse an XYZ document. The comment line may carry `charge=<int>`.
///
/// Only a molecule an SCF can run on parses: at least one atom, every
/// coordinate finite, and no more positive charge than protons.
pub fn parse_xyz(text: &str) -> Result<Molecule, String> {
    let mut lines = text.lines();
    let n: usize = lines
        .next()
        .ok_or("empty XYZ input")?
        .trim()
        .parse()
        .map_err(|e| format!("bad atom count: {e}"))?;
    if n == 0 {
        return Err("atom count 0: a molecule needs at least one atom".into());
    }
    let comment = lines.next().unwrap_or("");
    let charge = comment
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix("charge="))
        .map(|v| v.parse::<i32>().map_err(|e| format!("bad charge: {e}")))
        .transpose()?
        .unwrap_or(0);

    let mut atoms = Vec::with_capacity(n);
    for (k, line) in lines.enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        if atoms.len() == n {
            return Err(format!("more atom lines than the declared count {n}"));
        }
        let mut parts = line.split_whitespace();
        let sym = parts.next().ok_or(format!("line {}: missing symbol", k + 3))?;
        let element =
            Element::from_symbol(sym).ok_or(format!("line {}: unknown element '{sym}'", k + 3))?;
        let mut coord = [0.0; 3];
        for c in &mut coord {
            let v = parts
                .next()
                .ok_or(format!("line {}: missing coordinate", k + 3))?
                .parse::<f64>()
                .map_err(|e| format!("line {}: bad coordinate: {e}", k + 3))?;
            if !v.is_finite() {
                return Err(format!("line {}: coordinate {v} is not finite", k + 3));
            }
            *c = v * ANGSTROM;
        }
        atoms.push(Atom { element, pos: coord });
    }
    if atoms.len() != n {
        return Err(format!("declared {n} atoms but found {}", atoms.len()));
    }
    let protons: u32 = atoms.iter().map(|a| a.element.atomic_number()).sum();
    if i64::from(charge) > i64::from(protons) {
        return Err(format!("charge={charge} exceeds the {protons} protons of the nuclei"));
    }
    Ok(Molecule::new(atoms, charge))
}

/// Serialize a molecule to XYZ (Ångström), embedding the charge in the
/// comment line so a round trip is lossless.
pub fn to_xyz(mol: &Molecule, comment: &str) -> String {
    let mut out = format!("{}\ncharge={} {}\n", mol.n_atoms(), mol.charge(), comment);
    for a in mol.atoms() {
        out.push_str(&format!(
            "{:2} {:18.10} {:18.10} {:18.10}\n",
            a.element.symbol(),
            a.pos[0] / ANGSTROM,
            a.pos[1] / ANGSTROM,
            a.pos[2] / ANGSTROM
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::small;

    #[test]
    fn roundtrip_preserves_geometry_and_charge() {
        let mol = small::heh_cation();
        let text = to_xyz(&mol, "test");
        let back = parse_xyz(&text).unwrap();
        assert_eq!(back.n_atoms(), mol.n_atoms());
        assert_eq!(back.charge(), mol.charge());
        for (a, b) in mol.atoms().iter().zip(back.atoms()) {
            assert_eq!(a.element, b.element);
            for k in 0..3 {
                assert!((a.pos[k] - b.pos[k]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn parses_a_handwritten_file() {
        let text = "3\nwater molecule\nO 0.0 0.0 0.117\nH 0.0 0.757 -0.469\nH 0.0 -0.757 -0.469\n";
        let mol = parse_xyz(text).unwrap();
        assert_eq!(mol.n_atoms(), 3);
        assert_eq!(mol.charge(), 0);
        assert_eq!(mol.atoms()[0].element, Element::O);
        // Coordinates converted to Bohr.
        assert!((mol.atoms()[1].pos[1] - 0.757 * ANGSTROM).abs() < 1e-12);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_xyz("").is_err());
        assert!(parse_xyz("x\ncomment\n").is_err());
        assert!(parse_xyz("1\nc\nXx 0 0 0\n").is_err());
        assert!(parse_xyz("2\nc\nH 0 0 0\n").is_err(), "too few atoms");
        assert!(parse_xyz("1\nc\nH 0 0\n").is_err(), "missing coordinate");
        assert!(parse_xyz("1\nc\nH 0 0 0\nH 1 1 1\n").is_err(), "too many atoms");
        // Parseable, but no SCF could run on them: each gets a named error.
        for (text, named) in [
            ("0\nempty\n", "atom count 0"),
            ("1\nc\nHe nan 0 0\n", "coordinate NaN is not finite"),
            ("2\nc\nH 0 0 0\nH 0 0 inf\n", "coordinate inf is not finite"),
            ("1\ncharge=5\nHe 0 0 0\n", "charge=5 exceeds the 2 protons"),
        ] {
            let err = parse_xyz(text).expect_err(text);
            assert!(err.contains(named), "{text:?}: {err}");
        }
        assert_eq!(parse_xyz("1\ncharge=2\nHe 0 0 0\n").map(|m| m.n_electrons()), Ok(0));
    }

    #[test]
    fn charge_tag_is_parsed() {
        let text = "1\ncharge=-1 anion\nH 0 0 0\n";
        let mol = parse_xyz(text).unwrap();
        assert_eq!(mol.charge(), -1);
        assert_eq!(mol.n_electrons(), 2);
    }
}
