//! Name-only derives for the `serde` stand-in: `impl Serialize for T {}`
//! and `impl<'de> Deserialize<'de> for T {}`, accepting (and ignoring)
//! `#[serde(...)]` helper attributes. Generic types are not supported;
//! the measured workspace derives on none.

use proc_macro::{TokenStream, TokenTree};

/// The identifier following `struct` or `enum`.
fn type_name(input: TokenStream) -> String {
    let mut tokens = input.into_iter();
    while let Some(tok) = tokens.next() {
        if let TokenTree::Ident(id) = &tok {
            let kw = id.to_string();
            if kw == "struct" || kw == "enum" {
                let Some(TokenTree::Ident(name)) = tokens.next() else {
                    panic!("serde stand-in: expected a type name after `{kw}`");
                };
                if let Some(TokenTree::Punct(p)) = tokens.next() {
                    assert!(p.as_char() != '<', "serde stand-in: generic types are not supported");
                }
                return name.to_string();
            }
        }
    }
    panic!("serde stand-in: derive applies to structs and enums only");
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    format!("impl ::serde::Serialize for {} {{}}", type_name(input)).parse().unwrap()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    format!("impl<'de> ::serde::Deserialize<'de> for {} {{}}", type_name(input)).parse().unwrap()
}
