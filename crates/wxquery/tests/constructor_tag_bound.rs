//! Element-constructor tags are names from outside the process like any
//! other: once the name table holds `MAX_NAMES`, a query whose constructor
//! introduces a new tag is refused with a typed error, and a query whose
//! names are all known still compiles.
//!
//! The name table is process-wide, so this file holds one test: a full
//! table would fail any test beside it that needs a new name.

use dss_wxquery::queries::Q1;
use dss_wxquery::{compile_query, QueryError};
use dss_xml::name::MAX_NAMES;
use dss_xml::{NameTable, Symbol, XmlError};

#[test]
fn a_new_constructor_tag_is_refused_once_the_name_table_is_full() {
    // Every name of Query 1 is known before the table fills.
    compile_query(Q1).expect("Query 1 compiles");
    let fresh = Q1.replace("vela>", "fresh-tag>");
    assert_ne!(fresh, Q1);

    let mut i = 0;
    while Symbol::try_intern(&format!("fill{i}")).is_some() {
        i += 1;
    }
    assert_eq!(NameTable::len(), MAX_NAMES);

    match compile_query(&fresh) {
        Err(QueryError::Xml(XmlError::TooManyNames { name })) => assert_eq!(name, "fresh-tag"),
        other => panic!("a new tag past the cap must be refused, got {other:?}"),
    }
    compile_query(Q1).expect("a query of known names still compiles");
    assert_eq!(NameTable::len(), MAX_NAMES);
}
