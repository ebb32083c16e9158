(** Recursive-descent parser for [.japi] files.

    Grammar (informally):
    {v
    file      ::= [package NAME ;] (import NAME ;)* decl*
    decl      ::= modifiers (class | interface) IDENT
                  [extends names] [implements names] { member* }
    member    ::= annotation* modifiers
                  ( type IDENT ( params ) ;          -- method
                  | IDENT ( params ) ;               -- constructor (IDENT = decl name)
                  | type IDENT ; )                   -- field
    type      ::= NAME ("[" "]")*
    annotation::= @ IDENT                            -- only @Deprecated is meaningful
    v} *)

val parse : Lexer.t -> file:string -> string -> Ast.rfile
(** Lex the whole source into the lexer's lanes, then parse them.
    @raise Error.E on lexical or syntax errors. *)
