(** Hand-written lexer for the [.japi] language.

    Handles [//] line comments, [/* ... */] block comments (non-nesting, like
    Java), and tracks line/column positions for error reporting.

    A lexer writes one whole file into flat lanes, one entry per token, and
    the parser reads them in place. The lanes are reused from file to file
    of one load, so lexing allocates nothing per token: identifiers are
    interned in the load's {!Names} table, and only an identifier's first
    occurrence in the load copies its text. Lexing a file in full before
    parsing it means a lexical error anywhere in the file is reported ahead
    of a syntax error earlier in it. *)

type kind =
  | Ident
  | Kw_package
  | Kw_import
  | Kw_class
  | Kw_interface
  | Kw_extends
  | Kw_implements
  | Kw_static
  | Kw_public
  | Kw_protected
  | Kw_private
  | Kw_abstract
  | Kw_final
  | Lbrace
  | Rbrace
  | Lparen
  | Rparen
  | Semi
  | Comma
  | Dot
  | Lbracket
  | Rbracket
  | At
  | Eof

type keywords
(** Which identifier ids are keywords, worked out once per id. *)

(** The lanes of the last file lexed: token [k < length] has kind
    [kinds.(k)] at [lines.(k)] and [cols.(k)] (1-based), and an [Ident]'s
    id in the {!Names} table is [idents.(k)]. The last token is the one
    {!Eof}. Read-only outside this module. *)
type t = private {
  names : Names.t;
  mutable kinds : kind array;
  mutable lines : int array;
  mutable cols : int array;
  mutable idents : int array;
  mutable length : int;
  keywords : keywords;
}

val create : Names.t -> t
(** A lexer interning into the given table. *)

val tokenize : t -> file:string -> string -> unit
(** Replace the lanes with the tokens of one source.
    @raise Error.E on an unexpected character or unterminated comment. *)

val describe : t -> int -> string
(** Token [k] for an error message, e.g. ["identifier 'foo'"] or ["'{'"]. *)

val describe_kind : kind -> string
