//! `#[derive(Serialize)]` and `#[derive(Deserialize)]` for the offline
//! serde shim.
//!
//! No `syn`/`quote` (no registry access), so the input item is parsed
//! directly from its token trees. Supported shapes — the only ones this
//! workspace derives on — are non-generic structs (named, tuple, unit)
//! and enums whose variants are unit, tuple, or struct-like. The
//! generated code writes serde-compatible externally-tagged JSON via
//! `::serde::Serialize` and reads exactly that shape back via
//! `::serde::Deserialize`.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derive `serde::Serialize` (JSON writer) for a struct or enum.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let body = match &item.shape {
        Shape::NamedStruct(fields) => named_struct_body(fields),
        Shape::TupleStruct(arity) => tuple_struct_body(*arity),
        Shape::UnitStruct => "out.push_str(\"null\");".to_string(),
        Shape::Enum(variants) => enum_body(variants),
    };
    let code = format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn write_json(&self, out: &mut ::std::string::String) {{\n{body}\n}}\n}}",
        name = item.name,
    );
    code.parse().expect("serde_derive generated invalid Rust")
}

/// Derive `serde::Deserialize` (JSON reader) for the same shapes, with
/// the same external tagging, that `Serialize` writes.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let body = match &item.shape {
        Shape::NamedStruct(fields) => read_named("Self", fields, "v"),
        Shape::TupleStruct(arity) => read_tuple("Self", *arity, "v"),
        Shape::UnitStruct => format!(
            "match v {{ ::serde::Json::Null => {OK}(Self), \
             _ => {ERR}(\"expected null\".into()) }}"
        ),
        Shape::Enum(variants) => read_enum(&item.name, variants),
    };
    let code = format!(
        "impl ::serde::Deserialize for {name} {{\n\
         fn read_json(v: &::serde::Json) -> ::std::result::Result<Self, ::std::string::String> {{\n\
         {body}\n}}\n}}",
        name = item.name,
    );
    code.parse().expect("serde_derive generated invalid Rust")
}

const OK: &str = "::std::result::Result::Ok";
const ERR: &str = "::std::result::Result::Err";
const READ: &str = "::serde::Deserialize::read_json";

struct Item {
    name: String,
    shape: Shape,
}

enum Shape {
    NamedStruct(Vec<String>),
    TupleStruct(usize),
    UnitStruct,
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum VariantKind {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
}

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    skip_attrs_and_vis(&tokens, &mut i);
    let kind = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde_derive: expected struct/enum, found {other}"),
    };
    i += 1;
    let name = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde_derive: expected type name, found {other}"),
    };
    i += 1;
    if matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde_derive shim does not support generic types (deriving on {name})");
    }
    let shape = match kind.as_str() {
        "struct" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::NamedStruct(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Shape::TupleStruct(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Shape::UnitStruct,
            other => panic!("serde_derive: unexpected struct body {other:?}"),
        },
        "enum" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Enum(parse_variants(g.stream()))
            }
            other => panic!("serde_derive: unexpected enum body {other:?}"),
        },
        other => panic!("serde_derive: cannot derive Serialize for {other} items"),
    };
    Item { name, shape }
}

/// Advance past `#[...]` attributes and `pub` / `pub(...)` visibility.
fn skip_attrs_and_vis(tokens: &[TokenTree], i: &mut usize) {
    loop {
        match tokens.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *i += 2; // '#' + bracketed group
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if matches!(tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    *i += 1;
                }
            }
            _ => return,
        }
    }
}

/// Split a brace/paren body at top-level commas (angle-bracket aware).
fn split_top_level(stream: TokenStream) -> Vec<Vec<TokenTree>> {
    let mut parts: Vec<Vec<TokenTree>> = vec![Vec::new()];
    let mut angle_depth = 0i32;
    for tt in stream {
        if let TokenTree::Punct(p) = &tt {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth -= 1,
                ',' if angle_depth == 0 => {
                    parts.push(Vec::new());
                    continue;
                }
                _ => {}
            }
        }
        parts.last_mut().expect("parts is never empty").push(tt);
    }
    parts.retain(|p| !p.is_empty());
    parts
}

fn parse_named_fields(stream: TokenStream) -> Vec<String> {
    split_top_level(stream)
        .into_iter()
        .map(|field| {
            let mut i = 0;
            skip_attrs_and_vis(&field, &mut i);
            match &field[i] {
                TokenTree::Ident(id) => id.to_string(),
                other => panic!("serde_derive: expected field name, found {other}"),
            }
        })
        .collect()
}

fn count_tuple_fields(stream: TokenStream) -> usize {
    split_top_level(stream).len()
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    split_top_level(stream)
        .into_iter()
        .map(|var| {
            let mut i = 0;
            skip_attrs_and_vis(&var, &mut i);
            let name = match &var[i] {
                TokenTree::Ident(id) => id.to_string(),
                other => panic!("serde_derive: expected variant name, found {other}"),
            };
            let kind = match var.get(i + 1) {
                None => VariantKind::Unit,
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    VariantKind::Named(parse_named_fields(g.stream()))
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    VariantKind::Tuple(count_tuple_fields(g.stream()))
                }
                other => panic!("serde_derive: unexpected tokens after variant {name}: {other:?}"),
            };
            Variant { name, kind }
        })
        .collect()
}

/// `{"a":<a>,"b":<b>}` writer over `self.<field>`.
fn named_struct_body(fields: &[String]) -> String {
    let mut s = String::from("out.push('{');\n");
    for (i, f) in fields.iter().enumerate() {
        if i > 0 {
            s.push_str("out.push(',');\n");
        }
        s.push_str(&format!(
            "out.push_str(\"\\\"{f}\\\":\");\n::serde::Serialize::write_json(&self.{f}, out);\n"
        ));
    }
    s.push_str("out.push('}');");
    s
}

/// Newtype structs render as the inner value, wider tuples as arrays.
fn tuple_struct_body(arity: usize) -> String {
    if arity == 1 {
        return "::serde::Serialize::write_json(&self.0, out);".to_string();
    }
    let mut s = String::from("out.push('[');\n");
    for i in 0..arity {
        if i > 0 {
            s.push_str("out.push(',');\n");
        }
        s.push_str(&format!(
            "::serde::Serialize::write_json(&self.{i}, out);\n"
        ));
    }
    s.push_str("out.push(']');");
    s
}

fn enum_body(variants: &[Variant]) -> String {
    let mut s = String::from("match self {\n");
    for v in variants {
        let name = &v.name;
        match &v.kind {
            VariantKind::Unit => {
                s.push_str(&format!(
                    "Self::{name} => {{ out.push_str(\"\\\"{name}\\\"\"); }}\n"
                ));
            }
            VariantKind::Tuple(arity) => {
                let binders: Vec<String> = (0..*arity).map(|i| format!("__f{i}")).collect();
                s.push_str(&format!("Self::{name}({}) => {{\n", binders.join(", ")));
                s.push_str(&format!("out.push_str(\"{{\\\"{name}\\\":\");\n"));
                if *arity == 1 {
                    s.push_str("::serde::Serialize::write_json(__f0, out);\n");
                } else {
                    s.push_str("out.push('[');\n");
                    for (i, b) in binders.iter().enumerate() {
                        if i > 0 {
                            s.push_str("out.push(',');\n");
                        }
                        s.push_str(&format!("::serde::Serialize::write_json({b}, out);\n"));
                    }
                    s.push_str("out.push(']');\n");
                }
                s.push_str("out.push('}');\n}\n");
            }
            VariantKind::Named(fields) => {
                s.push_str(&format!("Self::{name} {{ {} }} => {{\n", fields.join(", ")));
                s.push_str(&format!("out.push_str(\"{{\\\"{name}\\\":{{\");\n"));
                for (i, f) in fields.iter().enumerate() {
                    if i > 0 {
                        s.push_str("out.push(',');\n");
                    }
                    s.push_str(&format!(
                        "out.push_str(\"\\\"{f}\\\":\");\n::serde::Serialize::write_json({f}, out);\n"
                    ));
                }
                s.push_str("out.push_str(\"}}\");\n}\n");
            }
        }
    }
    s.push('}');
    s
}

/// `Ok(path { a: <field a of src>, ... })`.
fn read_named(path: &str, fields: &[String], src: &str) -> String {
    let inits: Vec<String> = fields
        .iter()
        .map(|f| format!("{f}: ::serde::read_field({src}, \"{f}\")?"))
        .collect();
    format!("{OK}({path} {{ {} }})", inits.join(", "))
}

/// `Ok(path(<src>))` for a newtype, else `Ok(path(<src[0]>, ...))` over
/// an array of exactly `arity` elements.
fn read_tuple(path: &str, arity: usize, src: &str) -> String {
    if arity == 1 {
        return format!("{OK}({path}({READ}({src})?))");
    }
    let elems: Vec<String> = (0..arity).map(|i| format!("{READ}(&__t[{i}])?")).collect();
    format!(
        "{{ let __t = ::serde::read_tuple({src}, {arity})?; {OK}({path}({})) }}",
        elems.join(", ")
    )
}

fn read_enum(name: &str, variants: &[Variant]) -> String {
    let mut s = String::from("match ::serde::read_variant(v)? {\n");
    for v in variants {
        let vname = &v.name;
        let path = format!("Self::{vname}");
        // A unit variant is a bare string (no payload); the others are
        // one-key objects whose payload decodes like a struct body.
        let (payload, arm) = match &v.kind {
            VariantKind::Unit => ("None", format!("{OK}({path})")),
            VariantKind::Tuple(arity) => ("Some(__p)", read_tuple(&path, *arity, "__p")),
            VariantKind::Named(fields) => ("Some(__p)", read_named(&path, fields, "__p")),
        };
        s.push_str(&format!(
            "(\"{vname}\", ::std::option::Option::{payload}) => {arm},\n"
        ));
    }
    s.push_str(&format!(
        "(__other, _) => {ERR}(::std::format!(\"unknown or malformed variant {{__other:?}} of {name}\")),\n}}"
    ));
    s
}
